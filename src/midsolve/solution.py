"""Result types: the solution shared by the branch-and-reduce solver and
the oracles, the search statistics the solver returns with it, and the
degree weights the analysis optimizer returns.

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


@dataclass(frozen=True)
class WeightVector:
    """Degree weights (w1, w2); w0 = 0 and w_i = 1 for i >= 3 are fixed.
    Kept here rather than in ``analysis`` for the same reason as
    ``SearchStats``: a kept optimizer result then refers to this small
    module only."""

    w1: float
    w2: float

    def is_admissible(self) -> bool:
        # 0 <= w1 <= w2 <= 1 and decreasing increments:
        # w1 - w0 >= w2 - w1 >= 1 - w2
        return (0.0 <= self.w1 <= self.w2 <= 1.0
                and self.w1 >= self.w2 - self.w1 >= 1.0 - self.w2)

    def for_degree(self, d: int) -> float:
        if d <= 0:
            return 0.0
        if d == 1:
            return self.w1
        if d == 2:
            return self.w2
        return 1.0
