"""Branch-and-reduce solver for minimum independent dominating sets on
marked graphs.

The search is one depth-first loop over an explicit stack of open nodes;
it changes no process-global state, so several threads may solve at once.
Each node dispatches the first applicable rule of an ordered list of 18
cases; the terminal states are the empty graph, an undominatable marked
vertex, and the clique-union endgame which is delegated to the CSP encoding.
``_dispatch`` picks the rule and the vertices it branches on, and
``_children`` is the one place where a rule's children are built, one at a
time in search order, as the vertices each commits and the instance left.
All tie-breaks (rule candidates, neighbor orderings) use ascending vertex
identifiers, so two runs on the same input produce identical search trees.

Branch and bound.  Every free component holds at least one vertex of any
independent dominating set: marked vertices never dominate, and a free
vertex can only be dominated from inside its own free component.  A
component C needs more when it is large for its degrees: the solution
vertices inside C must dominate C and the marked vertices whose free
neighbors all lie in C, and each dominates at most its degree plus one of
them.  ``_lower_bound`` sums these per-component bounds, so it is never
below the number of free components.  Each node gets an exclusive upper
bound ``ub`` and returns its best solution of size ``< ub``, or
``INFEASIBLE`` when there is none.  The root has ``ub = k + 1``, where
``k`` is the size of a greedy independent dominating set (``ub = inf``
when the greedy choice leaves a marked vertex undominated); a child gets
``min(ub, best) - j``, where ``best`` is the size of the best solution its
earlier siblings returned and ``j`` the number of vertices the child's
branch commits.  A node whose lower bound is at least its ``ub`` is a leaf
of case ``"pruned"``: it cannot beat a solution already found.  The root
is never cut, since its bound is at most the optimum, which is at most
``k``.  Since ties keep the earlier branch in both modes, and the first
optimum in search order has size below every ``ub`` on its path, pruning
returns the same solution, witness included, as paper mode:
``solve(g, prune=False)``, which keeps ``ub = inf`` throughout, computes
no bound and runs the whole tree the paper analyses.  The lower-bound
traces use paper mode.

Input contract: every marked vertex has at most 4 free neighbors.  Entering
from a plain graph (no marked vertices) satisfies this trivially, and the
branching rules preserve it.
"""

from __future__ import annotations

import math
from typing import AbstractSet, Callable, Optional, Union

from . import csp
from .analysis import REFERENCE_WEIGHTS, WeightVector, measure
from .graph import MarkedGraph
from .oracle import check_ids
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


def _lower_bound(g: MarkedGraph, comps: list) -> int:
    """Lower bound on the size of every independent dominating set of g:
    the sum over the free components C of max(1, ceil((|C| + |M_C|) /
    (Delta_C + 1))).

    M_C is the set of marked vertices whose free neighbors all lie in C,
    and Delta_C the largest degree, free and marked neighbors counted, of a
    vertex of C.  Proof: let D be a solution.  Only free vertices dominate,
    and every free neighbor of a vertex of C or of M_C lies in C, so the
    vertices of D inside C dominate all of C and M_C.  Each of them
    dominates itself and its neighbors, at most Delta_C + 1 vertices, so at
    least (|C| + |M_C|) / (Delta_C + 1) of them lie in C, and at least one
    since C is not empty.  The components are disjoint, so the terms add.
    Every term is at least 1: the bound is never below the component count.
    """
    comp_of = {v: i for i, comp in enumerate(comps) for v in comp}
    covered = [len(comp) for comp in comps]
    for u in g.marked:
        # a marked vertex has only free neighbors, at least one in a node
        # that is not case 1
        nbrs = g.neighbors(u)
        i = comp_of[next(iter(nbrs))]
        if nbrs <= comps[i]:
            covered[i] += 1
    return sum(max(1, -(-cov // (1 + max(len(g.neighbors(v)) for v in comp))))
               for cov, comp in zip(covered, comps))


def _dispatch(g: MarkedGraph, ub: float):
    """First applicable rule in listing order; returns (case, x) where ``x``
    is what ``_children`` reads to build the case's children.

    Ahead of the rules, a node whose lower bound (``_lower_bound``) is at
    least the exclusive upper bound ``ub`` is PRUNED; with ``ub`` infinite
    the bound is not computed.
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
    if ub < math.inf and _lower_bound(g, comps) >= ub:
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
        return 5, min(g.free_neighbors(m1))

    for comp, cl in zip(comps, classes):
        if cl[0] == "complete_bipartite" and len(comp) > 2:
            return 6, (cl[1], cl[2])

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
            return 9, (u, nbrs)
        return 10, u
    if d == 3:
        if all(deg[v] == 3 for v in nbrs):
            return 11, case11_select(g, u)
        v4 = min((v for v in nbrs if deg[v] == 4), default=None)
        if v4 is not None:
            return 12, v4
        v5 = min((v for v in nbrs if deg[v] == 5), default=None)
        if v5 is not None:
            return 13, (u, v5)
        if sum(1 for v in nbrs if deg[v] == 3) >= 2:
            if g.is_clique(g.free_neighbors(u)):
                return 14, min(nbrs, key=lambda v: (-deg[v], v))
            return 15, (u, nbrs)
        return 16, u
    if d == 4:
        return 17, u
    return 18, u


def dispatch_case(g: MarkedGraph) -> CaseId:
    """The rule of the algorithm listing that applies to g."""
    return _dispatch(g, math.inf)[0]


# ---------------------------------------------------------------------------
# Children


def _take(g: MarkedGraph, vs: AbstractSet[int]) -> MarkedGraph:
    """Instance after committing the free vertices vs: N[vs] leaves the graph."""
    nbrs = frozenset().union(*(g.neighbors(v) for v in vs))
    return g.induced(g.free - nbrs - vs, g.marked - nbrs)


def _children(g: MarkedGraph, case: CaseId, x):
    """The children of a branching node in search order, each built only
    when it is asked for: pairs ``(taken, child)`` of the vertices the
    branch commits and the instance left to solve.  ``x`` is what
    ``_dispatch`` returned with ``case``."""
    if case in (2, 8, 10, 16, 18):
        # x or one of its free neighbors joins the solution
        for v in [x] + sorted(g.free_neighbors(x)):
            yield {v}, _take(g, {v})
    elif case in (9, 15):
        # the same, marking the neighbors tried before (ordered by F-degree)
        u, nbrs = x
        yield {u}, _take(g, {u})
        for i, v in enumerate(nbrs):
            earlier = frozenset(nbrs[:i])
            yield {v}, g.induced(g.free - g.neighbors(v) - {v} - earlier,
                                 (g.marked | earlier) - g.neighbors(v))
    elif case in (3, 11, 12, 17):
        # take x or mark it
        yield {x}, _take(g, {x})
        yield (), g.induced(g.free - {x}, g.marked | {x})
    elif case == 5:
        # x is the only free neighbor of a marked vertex
        yield {x}, _take(g, {x})
    elif case == 6:
        # one side of a complete bipartite component
        for side in x:
            yield side, _take(g, side)
    elif case in (7, 14):
        yield {x}, _take(g, {x})
        # x is deleted but not marked: a clique in its neighborhood
        # guarantees a dominator in every child solution
        yield (), g.induced(g.free - {x}, g.marked)
    elif case == 13:
        u, v = x
        yield {u}, _take(g, {u})
        yield {v}, _take(g, {v})
        yield (), g.induced(g.free - {u, v}, g.marked | {u, v})
    else:
        raise SolverError(f"unhandled case {case}")  # pragma: no cover


def _greedy_ids(g: MarkedGraph) -> Optional[frozenset]:
    """A greedy independent dominating set of g, or None when the greedy
    choice leaves a marked vertex undominated.

    It repeatedly takes the undominated free vertex that dominates the most
    undominated vertices, the smallest identifier on ties; every free vertex
    is then dominated, and the result is kept only if ``check_ids`` passes.
    """
    undominated = set(g.vertices)
    order = sorted(g.free)
    chosen = []
    while True:
        candidates = [v for v in order if v in undominated]
        if not candidates:
            break
        v = max(candidates, key=lambda v: len(g.neighbors(v) & undominated))
        chosen.append(v)
        undominated -= g.neighbors(v) | {v}
    return frozenset(chosen) if check_ids(g, chosen) else None


def _check_marked_degrees(g: MarkedGraph, prefix: str = "") -> None:
    """The input contract, also kept by every child: each marked vertex has
    at most 4 free neighbors."""
    bad = [u for u in g.marked if g.f_degree(u) > 4]
    if bad:
        raise SolverError(f"{prefix}marked vertex {min(bad)} has F-degree > 4")


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

    With ``prune`` (the default) the search is a branch and bound, seeded
    with a greedy independent dominating set as its incumbent: a node whose
    lower bound (``_lower_bound``: per free component, its vertices and the
    marked vertices only it can dominate, divided by its largest degree
    plus one) is at least the best size found so far minus the vertices
    committed above it is cut and counted as case ``"pruned"``.  The root
    is never cut.  ``prune=False`` is paper mode: it runs the whole
    branch-and-reduce tree the paper analyses, with the same nodes, leaves,
    case counts and witness as before pruning existed.  Both modes return
    the same solution.

    The search is one loop over an explicit stack, not a recursion: it
    changes no process-global state, so several threads may solve at once.
    """
    _check_marked_degrees(g, "input contract violated: ")
    stats = SearchStats()
    # open nodes, root first: [graph, case, children, ub, best, current child's taken]
    stack: list = []
    # an incumbent of size k lets the root look for solutions of size <= k:
    # the first optimum in search order, paper mode's witness, is still found
    incumbent = _greedy_ids(g) if prune else None
    node, ub = g, math.inf if incumbent is None else len(incumbent) + 1
    while True:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, len(stack))
        case, x = _dispatch(node, ub)
        stats.count(case)
        if on_node is not None:
            on_node(len(stack), node, case)
        if assert_mode:
            _check_marked_degrees(node)
        if case in (EMPTY, 1, PRUNED, CSP_ENDGAME):
            stats.leaves += 1
            sol = (Solution.found(0, ()) if case == EMPTY else
                   csp.solve_clique_union(node) if case == CSP_ENDGAME else INFEASIBLE)
        else:  # handing INFEASIBLE to the node just opened keeps its best
            stack.append([node, case, _children(node, case, x), ub, INFEASIBLE, ()])
            sol = INFEASIBLE
        # hand sol up, closing each node whose children are all solved
        while stack:
            frame = stack[-1]
            parent, parent_case, children, parent_ub, best, taken = frame
            best = frame[4] = better(best, sol.plus(taken))
            taken, node = next(children, ((), None))
            if node is not None:
                break
            stack.pop()
            sol = best
        else:
            return sol, stats
        if assert_mode:
            if len(node.free) >= len(parent.free):
                raise SolverError("child does not shrink the free vertex set")
            if parent_case != 5:  # forcing, not branching
                drop = measure(parent, weights) - measure(node, weights)
                if drop <= 1e-12:
                    raise SolverError(f"measure did not decrease (drop={drop})")
        frame[5] = taken
        bound = min(parent_ub, best.size) if prune and best.feasible else parent_ub
        ub = bound - len(taken)
