"""Reference solvers for validating the branch-and-reduce engine.

Two independent routes, both for any marked graph: exhaustive subset
search over the free vertices, and taking the smallest set among the
maximal independent sets of G[F] that dominate the marked vertices (an
independent dominating set is exactly such a set).  Both run on the
graph's masks through one checker and share only the graph model with the
solver, so agreement between the routes is meaningful evidence.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from .graph import MarkedGraph, bits, select
from .solution import INFEASIBLE, Solution

EXHAUSTIVE_LIMIT = 25


class OracleError(ValueError):
    pass


def check_ids(g: MarkedGraph, d: Iterable[int]) -> bool:
    """Is d an independent dominating set of g?

    Requires d to consist of free vertices, be pairwise non-adjacent, and
    dominate every vertex (free and marked alike).
    """
    ds = frozenset(d)
    return ds <= g.free and _is_ids(g, g.base.mask(ds))


def _is_ids(g: MarkedGraph, m: int) -> bool:
    """``check_ids`` for a mask m of free vertices."""
    covered = m
    for a in select(g.base.adj, m):
        if a & m:
            return False
        covered |= a
    return not (g.free_mask | g.marked_mask) & ~covered


def exhaustive_mids(g: MarkedGraph) -> Solution:
    """Ground truth by subset enumeration in increasing cardinality."""
    n = g.free_mask.bit_count()
    if n > EXHAUSTIVE_LIMIT:
        raise OracleError(
            f"{n} free vertices exceed the exhaustive guard of {EXHAUSTIVE_LIMIT}")
    singles = [1 << i for i in bits(g.free_mask)]
    for size in range(n + 1):
        for cand in combinations(singles, size):
            if _is_ids(g, m := sum(cand)):
                return Solution.found(size, g.base.decode(m))
    return INFEASIBLE


def enumerate_maximal_independent_sets(g: MarkedGraph) -> Iterator[frozenset]:
    """All maximal independent sets of G[F], each exactly once."""
    return map(g.base.decode, _maximal_independent_masks(g))


def _maximal_independent_masks(g: MarkedGraph) -> Iterator[int]:
    """Bron-Kerbosch with Tomita's pivot on the complement of G[F], a loop
    over a stack of (R, P, X) masks: R the set so far, P the free vertices
    that may still join it, X those that may not but are not yet dominated.
    The pivot u maximises |P - N[u]|, and only P ∩ N[u] is branched on."""
    closed = g.base.closed
    stack = [(0, g.free_mask, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p:
            if not x:
                yield r
            continue
        pivot = max(select(closed, p | x), key=lambda c: (p & ~c).bit_count())
        for v in bits(p & pivot):
            stack.append((r | 1 << v, p & ~closed[v], x & ~closed[v]))
            p ^= 1 << v
            x |= 1 << v


def mis_enumeration_mids(g: MarkedGraph) -> Solution:
    """Smallest maximal independent set of G[F] that dominates the marked
    vertices.

    Ties are broken toward the lexicographically smallest witness so the
    result is deterministic; indices ascend with identifiers, so the
    witness's indices compare as its identifiers do.
    """
    best = min((m for m in _maximal_independent_masks(g) if _is_ids(g, m)),
               key=lambda m: (m.bit_count(), bits(m)), default=None)
    return (INFEASIBLE if best is None
            else Solution.found(best.bit_count(), g.base.decode(best)))
