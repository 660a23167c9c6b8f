"""Instrumented runs on the layered lower-bound family.

On these inputs the solver should apply the degree-2 three-way branching
rule (case 9) at every node that still has more than four free vertices,
the three children should remove exactly 3, 4 and 5 vertices from the
layered suffix, and the leaf counts should grow like the recurrence
L[k] = L[k-3] + L[k-4] + L[k-5] per two removed vertices.  Both runs
solve in paper mode (``prune=False``), so they measure the whole tree of
the algorithm the paper analyses rather than a pruned one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .instances import gen_lower_bound
from .solver import case9_candidates, solve


@dataclass
class NodeRecord:
    node_id: int
    parent_id: Optional[int]
    depth: int
    free_count: int
    case: object
    free_vertices: frozenset
    candidates: Optional[tuple] = None  # only recorded at case-9 nodes


@dataclass
class TraceReport:
    l: int
    nodes: int
    leaves: int
    case9_only_above_4: bool
    candidate_log: list = field(default_factory=list)
    candidate_shapes_ok: bool = True
    child_removals_ok: bool = True


def _shape_ok(rec: NodeRecord, l: int) -> bool:
    """Candidate structure on the layered family: the live vertices form a
    contiguous suffix ending at v_l = 2l and the candidate pair is the
    suffix's first vertex together with v_l."""
    free = rec.free_vertices
    lo, hi = min(free), max(free)
    if hi != 2 * l or free != frozenset(range(lo, hi + 1)):
        return False
    return rec.candidates == (lo, 2 * l)


def trace(l: int) -> TraceReport:
    """Solve the l-layer instance with per-node hooks and check the
    candidate structure, the all-case-9 claim and the child removal counts."""
    if l < 3:
        raise ValueError(f"trace needs l >= 3, got {l}")
    g = gen_lower_bound(l)
    records: list[NodeRecord] = []
    stack: list[int] = []  # node id per depth along the current DFS path

    def hook(depth, node_graph, case):
        node_id = len(records)
        parent = stack[depth - 1] if depth > 0 else None
        del stack[depth:]
        stack.append(node_id)
        cands = tuple(case9_candidates(node_graph)) if case == 9 else None
        records.append(NodeRecord(node_id, parent, depth,
                                  len(node_graph.free), case,
                                  node_graph.free, cands))

    _, stats = solve(g, on_node=hook, prune=False)

    report = TraceReport(l=l, nodes=stats.nodes, leaves=stats.leaves,
                         case9_only_above_4=True)
    children: dict[int, list[int]] = {}
    for rec in records:
        if rec.parent_id is not None:
            children.setdefault(rec.parent_id, []).append(rec.free_count)
    for rec in records:
        if rec.free_count > 4:
            if rec.case != 9:
                report.case9_only_above_4 = False
                continue
            report.candidate_log.append(rec)
            if not _shape_ok(rec, l):
                report.candidate_shapes_ok = False
            removals = sorted(rec.free_count - c for c in children.get(rec.node_id, []))
            if removals != [3, 4, 5]:
                report.child_removals_ok = False
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
