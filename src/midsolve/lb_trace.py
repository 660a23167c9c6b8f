"""Instrumented runs on the layered lower-bound family.

On these inputs the solver should apply the degree-2 three-way branching
rule (case 9) at every node that still has more than four free vertices,
the three children should remove exactly 3, 4 and 5 vertices from the
layered suffix, and the leaf counts should grow like the recurrence
L[k] = L[k-3] + L[k-4] + L[k-5] per two removed vertices.  Both runs
solve in paper mode (``prune=False``), so they measure the whole tree of
the algorithm the paper analyses rather than a pruned one.

The ``on_node`` hook sees the nodes in DFS pre-order with their depths, so
it keeps only the current path, where a node's parent is the last entry
above its depth, and it records only the case-9 nodes it checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .instances import gen_lower_bound
from .solver import case9_candidates, solve


@dataclass
class NodeRecord:
    """A case-9 node with more than 4 free vertices, its tied candidates and
    the free vertices each of its children removed, in search order."""

    depth: int
    free_count: int
    candidates: tuple
    removals: list = field(default_factory=list)


@dataclass
class TraceReport:
    l: int
    nodes: int
    leaves: int
    case9_only_above_4: bool
    candidate_log: list = field(default_factory=list)
    candidate_shapes_ok: bool = True
    child_removals_ok: bool = True


def _shape_ok(free_mask: int, candidates: tuple, l: int) -> bool:
    """Candidate structure on the layered family: the live vertices form a
    contiguous suffix ending at v_l = 2l and the candidate pair is the
    suffix's first vertex together with v_l.  The family's identifiers are
    1..2l, so vertex i is bit i - 1, and such a suffix is exactly a mask
    whose sum with its lowest bit is ``1 << 2l``."""
    low = free_mask & -free_mask
    return free_mask + low == 1 << 2 * l and candidates == (low.bit_length(), 2 * l)


def trace(l: int) -> TraceReport:
    """Solve the l-layer instance with per-node hooks and check the
    candidate structure, the all-case-9 claim and the child removal counts."""
    if l < 3:
        raise ValueError(f"trace needs l >= 3, got {l}")
    report = TraceReport(l=l, nodes=0, leaves=0, case9_only_above_4=True)
    path: list = []  # per depth on the current DFS path: its record or None

    def hook(depth, node, case):
        del path[depth:]
        free = node.free_mask.bit_count()
        if path and path[-1] is not None:
            path[-1].removals.append(path[-1].free_count - free)
        rec = None
        if free > 4:
            if case != 9:
                report.case9_only_above_4 = False
            else:
                rec = NodeRecord(depth, free, tuple(case9_candidates(node)))
                report.candidate_log.append(rec)
                if not _shape_ok(node.free_mask, rec.candidates, l):
                    report.candidate_shapes_ok = False
        path.append(rec)

    _, stats = solve(gen_lower_bound(l), on_node=hook, prune=False)
    report.nodes, report.leaves = stats.nodes, stats.leaves
    report.child_removals_ok = all(sorted(rec.removals) == [3, 4, 5]
                                   for rec in report.candidate_log)
    return report


def leaf_growth(l_min: int, l_max: int) -> list[tuple[int, int, Optional[float]]]:
    """Leaf counts of the traced runs and their consecutive ratios."""
    if not 3 <= l_min < l_max:
        raise ValueError(f"need 3 <= l_min < l_max, got {l_min}, {l_max}")
    return growth_rows(l_min, [solve(gen_lower_bound(l), prune=False)[1].leaves
                               for l in range(l_min, l_max + 1)])


def growth_rows(l_min: int, leaves: list) -> list[tuple[int, int, Optional[float]]]:
    """Rows ``(l, leaves, ratio to the count before or None)`` from l_min."""
    return [(l, n, n / prev if prev else None)
            for l, (prev, n) in enumerate(zip([None, *leaves], leaves), l_min)]
