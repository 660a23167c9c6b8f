"""Result types: the solution shared by the branch-and-reduce solver and
the oracles, and the search statistics the solver returns with it.

A marked graph may have no independent dominating set at all (e.g. a marked
vertex with no free neighbor), so results are either a witness set with its
size or the explicit ``INFEASIBLE`` value rather than a large sentinel
number.  The solver's search compares witness masks, ``None`` when
infeasible, and builds one ``Solution`` at its root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Union


@dataclass(frozen=True)
class Solution:
    size: Optional[int]
    witness: Optional[frozenset]

    @property
    def feasible(self) -> bool:
        return self.size is not None

    @staticmethod
    def found(size: int, witness: Iterable[int]) -> "Solution":
        w = frozenset(witness)
        if len(w) != size:
            raise ValueError(f"witness size {len(w)} != reported size {size}")
        return Solution(size, w)

    def __repr__(self) -> str:
        if not self.feasible:
            return "Infeasible"
        return f"Found({self.size}, {sorted(self.witness)})"


INFEASIBLE = Solution(None, None)


@dataclass
class SearchStats:
    """Size and shape of one search tree; ``case_counts`` maps each case
    identifier to the number of nodes that took it.  Kept beside
    ``Solution`` so that a kept result refers to this module only, not to
    the solver and everything it imports."""
    nodes: int = 0
    leaves: int = 0
    max_depth: int = 0
    case_counts: dict = field(default_factory=dict)

    def count(self, case: Union[int, str]) -> None:
        self.case_counts[case] = self.case_counts.get(case, 0) + 1

