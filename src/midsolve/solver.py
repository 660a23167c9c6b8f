"""Branch-and-reduce solver for minimum independent dominating sets on
marked graphs.

The recursion dispatches the first applicable rule of an ordered list of 18
cases; the terminal states are the empty graph, an undominatable marked
vertex, and the clique-union endgame which is delegated to the CSP encoding.
All tie-breaks (rule candidates, neighbor orderings) use ascending vertex
identifiers, so two runs on the same input produce identical search trees.

Branch and bound.  Every free component holds at least one vertex of any
independent dominating set: marked vertices never dominate, and a free
vertex can only be dominated from inside its own free component.  So the
number of free components is a lower bound on the size of every solution
of a node, the same fact the clique-union endgame's "one vertex per clique"
rests on.  Each node gets an exclusive upper bound ``ub`` and returns its
best solution of size ``< ub``, or ``INFEASIBLE`` when there is none.  The
root has ``ub = inf``; a child gets ``min(ub, best) - k``, where ``best`` is
the size of the best solution its earlier siblings returned and ``k`` the
number of vertices the child's branch commits.  A node whose lower bound is
at least its ``ub`` is a leaf of case ``"pruned"``: it cannot beat a
solution already found.  Since ties keep the earlier branch in both modes,
pruning returns the same solution, witness included, as paper mode:
``solve(g, prune=False)``, which keeps ``ub = inf`` throughout and runs the
whole tree the paper analyses.  The lower-bound traces use paper mode.

Input contract: every marked vertex has at most 4 free neighbors.  Entering
from a plain graph (no marked vertices) satisfies this trivially, and the
branching rules preserve it.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Collection, Optional, Union

from . import csp
from .analysis import REFERENCE_WEIGHTS, WeightVector, measure
from .graph import MarkedGraph
from .solution import INFEASIBLE, SearchStats, Solution, better

CaseId = Union[int, str]

CSP_ENDGAME: CaseId = "csp_endgame"
EMPTY: CaseId = "empty"
PRUNED: CaseId = "pruned"


class SolverError(ValueError):
    """Input contract or internal invariant violation."""


# ---------------------------------------------------------------------------
# Case dispatch


def _branch_candidates(g: MarkedGraph, comps: list, classes: list,
                       deg: dict) -> list[int]:
    """Vertex selection for Cases (8)-(18) from the node's free components,
    their classes and F-degrees: all tied vertices, ascending.

    (a) skip vertices whose free component is a clique, (b) minimum
    F-degree, (c) prefer vertices with a free neighbor of maximum F-degree;
    the branch vertex is the first (smallest identifier).
    """
    eligible = frozenset().union(
        *(c for c, cl in zip(comps, classes) if cl[0] != "clique"))
    if not eligible:
        return []
    dmin = min(deg[v] for v in eligible)
    min_deg = [v for v in sorted(eligible) if deg[v] == dmin]
    dmax = max(deg[w] for v in min_deg for w in g.free_neighbors(v))
    return [v for v in min_deg
            if any(deg[w] == dmax for w in g.free_neighbors(v))]


def case9_candidates(g: MarkedGraph) -> list[int]:
    """All vertices tied under criteria (a)-(c), ascending by identifier."""
    comps = g.free_components()
    return _branch_candidates(g, comps, [g.classify_component(c) for c in comps],
                              g.f_degrees())


def _find_case7_triangle(g: MarkedGraph, deg: dict) -> Optional[int]:
    """First free triangle (lexicographic vertex triple) with exactly one
    vertex of F-degree >= 3; returns that vertex."""
    free_sorted = sorted(g.free)
    for a in free_sorted:
        na = sorted(v for v in g.free_neighbors(a) if v > a)
        for i, b in enumerate(na):
            nb = g.free_neighbors(b)
            for c in na[i + 1:]:
                if c not in nb:
                    continue
                big = [v for v in (a, b, c) if deg[v] >= 3]
                if len(big) == 1:
                    return big[0]
    return None


def case11_select(g: MarkedGraph, u: int) -> int:
    """Vertex of N_F[u] whose free neighborhood spans at most one edge."""
    for v in sorted(g.free_neighbors(u) | {u}):
        nf = sorted(g.free_neighbors(v))
        span = sum(1 for i in range(len(nf)) for j in range(i + 1, len(nf))
                   if nf[j] in g.neighbors(nf[i]))
        if span <= 1:
            return v
    raise SolverError(f"no sparse-neighborhood vertex around {u}")  # unreachable in Case 11


def _dispatch(g: MarkedGraph, ub: float):
    """First applicable rule in listing order; returns (case, payload).

    Ahead of the rules, a node whose lower bound (its number of free
    components) is at least the exclusive upper bound ``ub`` is PRUNED.
    """
    if ub <= 0:
        return PRUNED, None
    if not g.free and not g.marked:
        return EMPTY, None
    deg = g.f_degrees()
    dead = min((u for u in g.marked if deg[u] == 0), default=None)
    if dead is not None:
        return 1, dead

    comps = g.free_components()
    if len(comps) >= ub:
        return PRUNED, None
    classes = [g.classify_component(c) for c in comps]
    if all(cl[0] == "clique" for cl in classes):
        u5 = min((u for u in g.free if deg[u] >= 5), default=None)
        if u5 is not None:
            return 2, u5
        u4 = min((u for u in g.free if deg[u] == 4), default=None)
        if u4 is not None:
            return 3, u4
        return CSP_ENDGAME, None

    m1 = min((u for u in g.marked if deg[u] == 1), default=None)
    if m1 is not None:
        return 5, m1

    for comp, cl in zip(comps, classes):
        if cl[0] == "complete_bipartite" and len(comp) > 2:
            return 6, (comp, cl[1], cl[2])

    v7 = _find_case7_triangle(g, deg)
    if v7 is not None:
        return 7, v7

    u = _branch_candidates(g, comps, classes, deg)[0]
    d = deg[u]
    nbrs = sorted(g.free_neighbors(u), key=lambda v: (deg[v], v))
    if d == 1:
        return 8, u
    if d == 2:
        if deg[nbrs[0]] <= 4:
            return 9, u
        return 10, u
    if d == 3:
        if all(deg[v] == 3 for v in nbrs):
            return 11, (u, case11_select(g, u))
        v4 = min((v for v in nbrs if deg[v] == 4), default=None)
        if v4 is not None:
            return 12, (u, v4)
        v5 = min((v for v in nbrs if deg[v] == 5), default=None)
        if v5 is not None:
            return 13, (u, v5)
        if sum(1 for v in nbrs if deg[v] == 3) >= 2:
            if g.is_clique(g.free_neighbors(u)):
                deg_sorted = sorted(nbrs, key=lambda v: (-deg[v], v))
                return 14, (u, deg_sorted[0])
            return 15, u
        return 16, u
    if d == 4:
        return 17, u
    return 18, u


def dispatch_case(g: MarkedGraph) -> CaseId:
    """The rule of the algorithm listing that applies to g."""
    return _dispatch(g, math.inf)[0]


# ---------------------------------------------------------------------------
# Child construction


def _take(g: MarkedGraph, v: int) -> MarkedGraph:
    """Instance after committing free vertex v: N[v] leaves the graph."""
    return g.induced(g.free - g.neighbors(v) - {v}, g.marked - g.neighbors(v))


def _take_set(g: MarkedGraph, vs: frozenset) -> MarkedGraph:
    nbrs = frozenset().union(*(g.neighbors(v) for v in vs)) if vs else frozenset()
    return g.induced(g.free - nbrs - vs, g.marked - nbrs)


class _Search:
    def __init__(self, assert_mode: bool, weights: WeightVector,
                 on_node: Optional[Callable], prune: bool):
        self.stats = SearchStats()
        self.assert_mode = assert_mode
        self.weights = weights
        self.on_node = on_node
        self.prune = prune

    # -- node bookkeeping -------------------------------------------------

    def _enter(self, g: MarkedGraph, depth: int, ub: float):
        self.stats.nodes += 1
        self.stats.max_depth = max(self.stats.max_depth, depth)
        case, payload = _dispatch(g, ub)
        self.stats.count(case)
        if self.on_node is not None:
            self.on_node(depth, g, case)
        if self.assert_mode:
            bad = [u for u in g.marked if g.f_degree(u) > 4]
            if bad:
                raise SolverError(f"marked vertex {min(bad)} has F-degree > 4")
        return case, payload

    def _child(self, parent: MarkedGraph, child: MarkedGraph,
               taken: Collection[int], depth: int, ub: float, best: Solution,
               branching: bool = True) -> Solution:
        """Solve one child that commits the vertices ``taken`` and return the
        better of its solution (plus ``taken``) and ``best``, the best of its
        earlier siblings.  The child only has to beat ``min(ub, best)``."""
        if self.assert_mode:
            if len(child.free) >= len(parent.free):
                raise SolverError("child does not shrink the free vertex set")
            if branching:
                drop = measure(parent, self.weights) - measure(child, self.weights)
                if drop <= 1e-12:
                    raise SolverError(f"measure did not decrease (drop={drop})")
        if self.prune and best.feasible:
            ub = min(ub, best.size)
        sub = self._solve(child, depth + 1, ub - len(taken))
        return better(best, sub.plus(taken))

    # -- branching procedures ---------------------------------------------

    def branch_all(self, g: MarkedGraph, u: int, depth: int, ub: float) -> Solution:
        best = INFEASIBLE
        for v in [u] + sorted(g.free_neighbors(u)):
            best = self._child(g, _take(g, v), {v}, depth, ub, best)
        return best

    def branch_mark(self, g: MarkedGraph, u: int, depth: int, ub: float) -> Solution:
        nbrs = sorted(g.free_neighbors(u), key=lambda v: (g.f_degree(v), v))
        best = self._child(g, _take(g, u), {u}, depth, ub, INFEASIBLE)
        for i, v in enumerate(nbrs):
            earlier = frozenset(nbrs[:i])
            child = g.induced(
                g.free - g.neighbors(v) - {v} - earlier,
                (g.marked | earlier) - g.neighbors(v))
            best = self._child(g, child, {v}, depth, ub, best)
        return best

    def branch_one(self, g: MarkedGraph, u: int, depth: int, ub: float) -> Solution:
        best = self._child(g, _take(g, u), {u}, depth, ub, INFEASIBLE)
        marked = g.induced(g.free - {u}, g.marked | {u})
        return self._child(g, marked, (), depth, ub, best)

    # -- main recursion ----------------------------------------------------

    def _solve(self, g: MarkedGraph, depth: int, ub: float) -> Solution:
        case, payload = self._enter(g, depth, ub)

        if case == EMPTY:
            self.stats.leaves += 1
            return Solution.found(0, ())
        if case == 1 or case == PRUNED:
            self.stats.leaves += 1
            return INFEASIBLE
        if case == CSP_ENDGAME:
            self.stats.leaves += 1
            return csp.solve_clique_union(g)

        if case == 2:
            return self.branch_all(g, payload, depth, ub)
        if case == 3:
            return self.branch_one(g, payload, depth, ub)
        if case == 5:
            v = min(g.free_neighbors(payload))
            return self._child(g, _take(g, v), {v}, depth, ub, INFEASIBLE,
                               branching=False)
        if case == 6:
            comp, x, y = payload
            best = self._child(g, _take_set(g, x), x, depth, ub, INFEASIBLE)
            return self._child(g, _take_set(g, y), y, depth, ub, best)
        if case in (7, 14):
            v = payload if case == 7 else payload[1]
            best = self._child(g, _take(g, v), {v}, depth, ub, INFEASIBLE)
            # v is deleted but not marked: a clique in its neighborhood
            # guarantees a dominator in every child solution
            dropped = g.induced(g.free - {v}, g.marked)
            return self._child(g, dropped, (), depth, ub, best)
        if case in (8, 10, 16, 18):
            return self.branch_all(g, payload, depth, ub)
        if case in (9, 15):
            return self.branch_mark(g, payload, depth, ub)
        if case in (11, 12):
            return self.branch_one(g, payload[1], depth, ub)
        if case == 13:
            u, v = payload
            best = self._child(g, _take(g, u), {u}, depth, ub, INFEASIBLE)
            best = self._child(g, _take(g, v), {v}, depth, ub, best)
            both = g.induced(g.free - {u, v}, g.marked | {u, v})
            return self._child(g, both, (), depth, ub, best)
        if case == 17:
            return self.branch_one(g, payload, depth, ub)
        raise SolverError(f"unhandled case {case}")  # pragma: no cover


def solve(g: MarkedGraph, *, assert_mode: bool = False,
          weights: WeightVector = REFERENCE_WEIGHTS,
          on_node: Optional[Callable] = None,
          prune: bool = True) -> tuple[Solution, SearchStats]:
    """Minimum independent dominating set of a marked graph.

    Returns the solution (witness vertices refer to the original input) and
    the statistics of the executed search tree.  ``assert_mode`` re-checks
    the marked-degree invariant and the measure decrease at every node.
    ``on_node(depth, graph, case)`` is invoked on every node in DFS
    pre-order.

    With ``prune`` (the default) the search is a branch and bound: a node
    whose number of free components, a lower bound on its solution size
    since each free component needs a vertex of its own, is at least the
    best size found so far minus the vertices committed above it is cut and
    counted as case ``"pruned"``.  ``prune=False`` is paper mode: it runs
    the whole branch-and-reduce tree the paper analyses, with the same
    nodes, leaves, case counts and witness as before pruning existed.  Both
    modes return the same solution.
    """
    bad = [u for u in g.marked if g.f_degree(u) > 4]
    if bad:
        raise SolverError(
            f"input contract violated: marked vertex {min(bad)} has F-degree > 4")
    needed = 60 * (len(g.free) + len(g.marked)) + 2000
    old_limit = sys.getrecursionlimit()
    if needed > old_limit:
        sys.setrecursionlimit(needed)
    try:
        search = _Search(assert_mode, weights, on_node, prune)
        sol = search._solve(g, 0, math.inf)
    finally:
        if needed > old_limit:
            sys.setrecursionlimit(old_limit)
    return sol, search.stats
