"""Reference solvers for validating the branch-and-reduce engine.

Two independent routes: exhaustive subset search over the free vertices,
and (for plain graphs) taking the smallest set among all maximal
independent sets.  Neither shares code with the solver beyond the graph
model, so agreement between the routes is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .graph import MarkedGraph
from .solution import INFEASIBLE, Solution

EXHAUSTIVE_LIMIT = 25


class OracleError(ValueError):
    pass


def check_ids(g: MarkedGraph, d: Iterable[int]) -> bool:
    """Is d an independent dominating set of g?

    Requires d to consist of free vertices, be pairwise non-adjacent, and
    dominate every vertex (free and marked alike).
    """
    return _is_ids(g.free, _neighborhoods(g), frozenset(d))


def _neighborhoods(g: MarkedGraph) -> dict:
    """Every vertex's neighbors, read once from the graph."""
    return {v: g.neighbors(v) for v in g.vertices}


def _is_ids(free: frozenset, nbrs: dict, ds: frozenset) -> bool:
    """``check_ids`` on a graph given by its free vertices and the
    neighborhoods of all its vertices."""
    if not ds <= free:
        return False
    for v in ds:
        if nbrs[v] & ds:
            return False
    for v, ns in nbrs.items():
        if v not in ds and not (ns & ds):
            return False
    return True


def exhaustive_mids(g: MarkedGraph) -> Solution:
    """Ground truth by subset enumeration in increasing cardinality."""
    if len(g.free) > EXHAUSTIVE_LIMIT:
        raise OracleError(
            f"{len(g.free)} free vertices exceed the exhaustive guard of {EXHAUSTIVE_LIMIT}")
    free, nbrs = g.free, _neighborhoods(g)
    free_sorted = sorted(free)
    for size in range(len(free_sorted) + 1):
        for cand in combinations(free_sorted, size):
            if _is_ids(free, nbrs, frozenset(cand)):
                return Solution.found(size, cand)
    return INFEASIBLE


def enumerate_maximal_independent_sets(g: MarkedGraph) -> Iterator[frozenset]:
    """All maximal independent sets of a plain graph, each exactly once.

    Plain include/exclude recursion over the vertices with a maximality
    filter at the leaves; simple on purpose, this is a test oracle.
    """
    if g.marked:
        raise OracleError("maximal independent set enumeration expects a plain graph")
    verts = sorted(g.free)

    def rec(idx: int, chosen: set):
        if idx == len(verts):
            if all(g.neighbors(v) & chosen for v in verts if v not in chosen):
                yield frozenset(chosen)
            return
        v = verts[idx]
        if not (g.neighbors(v) & chosen):
            chosen.add(v)
            yield from rec(idx + 1, chosen)
            chosen.remove(v)
        yield from rec(idx + 1, chosen)

    yield from rec(0, set())


def mis_enumeration_mids(g: MarkedGraph) -> Solution:
    """Smallest maximal independent set of a plain graph.

    Ties are broken toward the lexicographically smallest witness so the
    result is deterministic.
    """
    best = min(enumerate_maximal_independent_sets(g),
               key=lambda s: (len(s), sorted(s)))
    return Solution.found(len(best), best)
