"""Branch-and-reduce solver for minimum independent dominating sets on
marked graphs.

The search is one depth-first loop over an explicit stack of open nodes;
it changes no process-global state, so several threads may solve at once.
Each node dispatches the first applicable rule of an ordered list of 18
cases; the terminal states are the empty graph, an undominatable marked
vertex, and the clique-union endgame which is delegated to the CSP encoding.
``_dispatch`` picks the rule and states its children once, in search
order, as the vertices each commits to the solution, marks or deletes;
``_children`` builds them one at a time as the search asks for them.
All tie-breaks (rule candidates, neighbor orderings) use ascending vertex
identifiers, so two runs on the same input produce identical search trees.

Branch and bound.  Every free component holds at least one vertex of any
independent dominating set: marked vertices never dominate, and a free
vertex can only be dominated from inside its own free component.  The
solution vertices inside a component C must dominate C and the marked
vertices whose free neighbors all lie in C, and C often needs more than
one: as many as it takes for their closed neighborhoods, largest first, to
cover that set (the degree-sequence bound), and at least one for each
vertex of a set whose dominators are pairwise disjoint (the packing bound).
``_lower_bound`` sums the larger of the two over the components, so it is
never below the number of free components.  When the sum is one short of
the node's ``ub``, a solution below ``ub`` has exactly its term's number of
vertices in each component, and they are independent; a search bounded in
component size and expansions that finds no such set in some component
raises the bound to ``ub``.  Each node gets an exclusive
upper bound ``ub`` and returns the mask of its best witness of size
``< ub``, or ``None`` when there is none; only the root's witness is
decoded to identifiers.  The root has ``ub = k + 1``, where
``k`` is the size of a greedy independent dominating set (``ub = inf`` when
the greedy choice leaves a marked vertex undominated); a child gets
``min(ub, best) - j``, where ``best`` is the size of the best solution its
earlier siblings returned and ``j`` the number of vertices the child's
branch commits.  A node whose lower bound is at least its ``ub`` is a leaf
of case ``"pruned"``: it cannot beat a solution already found.  The root is
never cut, since its bound is at most the optimum, which is at most ``k``.
Since ties keep the earlier branch in both modes, and the first optimum in
search order has size below every ``ub`` on its path, pruning returns the
same solution, witness included, as paper mode: ``solve(g, prune=False)``,
which keeps ``ub = inf`` throughout, computes no bound and runs the whole
tree the paper analyses.  The lower-bound traces use paper mode.

Input contract: every marked vertex has at most 4 free neighbors.  Entering
from a plain graph (no marked vertices) satisfies this trivially, and the
branching rules preserve it.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate
from typing import Callable, Optional, Union

from . import csp
from .analysis import measure
from .graph import MarkedGraph, bits, non_cliques, overfull_marked, select
from .oracle import _is_ids
from .solution import INFEASIBLE, SearchStats, Solution

CaseId = Union[int, str]

CSP_ENDGAME: CaseId = "csp_endgame"
EMPTY: CaseId = "empty"
PRUNED: CaseId = "pruned"

# effort of the cover test in ``_lower_bound``: components of at most this
# many free vertices, and at most this many expansions per component
_COVER_MAX_FREE = 30
_COVER_BUDGET = 200


class SolverError(ValueError):
    """Input contract or internal invariant violation."""


# ---------------------------------------------------------------------------
# Case dispatch
#
# Below, a vertex is its index in the graph's relabelling, a vertex set is
# a bitmask (see ``graph``), and ``deg`` is ``g.degrees()``: the F-degree of
# every index.  Indices ascend with identifiers, so every tie-break is the
# one stated on identifiers.


def _branch_candidates(g: MarkedGraph, others: list, deg: list) -> list[int]:
    """Vertex selection for Cases (8)-(18) from the node's free components
    that are not cliques and its F-degrees: all tied vertices, ascending.

    (a) skip vertices whose free component is a clique (the caller passes
    only the others), (b) minimum F-degree, (c) prefer vertices with a free
    neighbor of maximum F-degree; the branch vertex is the first (smallest
    identifier).
    """
    eligible = bits(sum(others))  # disjoint masks: their sum is their union
    if not eligible:
        return []
    dmin = min([deg[v] for v in eligible])
    min_deg = [v for v in eligible if deg[v] == dmin]
    adj, free = g.base.adj, g.free_mask
    reached = 0  # free neighbors of the min-degree vertices
    for v in min_deg:
        reached |= adj[v] & free
    reached = bits(reached)
    dmax = max([deg[w] for w in reached])
    top = 0  # those of F-degree dmax
    for w in reached:
        if deg[w] == dmax:
            top |= 1 << w
    return [v for v in min_deg if adj[v] & top]


def case9_candidates(g: MarkedGraph) -> list[int]:
    """All vertices tied under criteria (a)-(c), ascending by identifier."""
    deg = g.degrees()
    ids = g.base.ids
    return [ids[v] for v in
            _branch_candidates(g, non_cliques(g.component_masks(), deg), deg)]


def _find_case7_triangle(g: MarkedGraph, deg: list) -> Optional[int]:
    """First free triangle (lexicographic vertex triple) with exactly one
    vertex of F-degree >= 3; returns that vertex.

    The other two vertices of such a triangle have F-degree exactly 2, so
    the scan runs over the F-degree-2 vertices x only: x qualifies when its
    two free neighbors are adjacent and exactly one of them is big.
    """
    adj, free = g.base.adj, g.free_mask
    best = None
    for x in bits(free):
        if deg[x] != 2:
            continue
        y, z = bits(adj[x] & free)
        if adj[y] >> z & 1 and (deg[y] >= 3) != (deg[z] >= 3):
            triple = sorted((x, y, z))
            if best is None or triple < best[0]:
                best = triple, y if deg[y] >= 3 else z
    return None if best is None else best[1]


def case11_select(g: MarkedGraph, u: int) -> int:
    """Vertex of N_F[u] whose free neighborhood spans at most one edge."""
    adj, free = g.base.adj, g.free_mask
    for v in bits(g.base.closed[u] & free):
        nf = adj[v] & free
        if sum((a & nf).bit_count() for a in select(adj, nf)) // 2 <= 1:
            return v
    # unreachable in Case 11
    raise SolverError(f"no sparse-neighborhood vertex around {g.base.ids[u]}")


def _lower_bound(g: MarkedGraph, comps: list, ub: float) -> int:
    """Lower bound on the size of every independent dominating set of g:
    the sum over the free components C of the larger of two terms, raised
    to ``ub`` when a cover test shows that no solution is below ``ub``.

    M_C is the set of marked vertices whose free neighbors all lie in C,
    and S the union of C and M_C.  Let D be a solution.  Only free vertices
    dominate, and every free neighbor of a vertex of S lies in C, so the
    vertices of D inside C dominate all of S.  Each term is at most their
    number |D & C|:

    - Degree sequence: the least k whose k largest values of
      val(v) = |N[v] & S|, over v in C, sum to at least |S|.  A vertex
      v of C dominates exactly val(v) vertices of S, so the values of the
      |D & C| vertices of D in C sum to at least |S|, and so do the
      |D & C| largest values.
    - Packing: the dominators of a vertex v of S are the free vertices
      that dominate it, N_F[v] for a free v and N_F(v) for a marked one,
      all in C.  D holds a dominator of every vertex of S, so vertices of S
      whose dominator sets are pairwise disjoint need as many distinct
      vertices of D in C.  The packing is built greedily: smallest
      dominator set first, ties by smallest identifier.

    Both terms are at least 1, since C is not empty, and the first is at
    least ceil(|S| / (Delta_C + 1)), Delta_C the largest degree in g of a
    vertex of C, since no val(v) exceeds Delta_C + 1.  The components and
    their sets S are disjoint, so the terms add: the bound is never below
    the number of free components.

    Cover test: when the sum is ``ub - 1``, a solution D smaller than ``ub``
    has exactly t vertices in each component C, t the larger term of C, and
    D & C is an independent set dominating S.  So when some C has no
    independent set of at most t vertices dominating S (``_has_cover``),
    no solution is smaller than ``ub``, and ``ub`` is returned.  The search
    runs only on components of at most ``_COVER_MAX_FREE`` free vertices,
    with ``_COVER_BUDGET`` expansions each; a search that runs out proves
    nothing and the bound stays the sum.
    """
    adj, closed, free = g.base.adj, g.base.closed, g.free_mask
    owned = [0] * len(comps)  # M_C of each component
    for u in bits(g.marked_mask):
        # a marked vertex has only free neighbors, at least one in a node
        # that is not case 1
        nbrs = adj[u] & free
        for i, c in enumerate(comps):
            if nbrs & c:
                if not nbrs & ~c:
                    owned[i] |= 1 << u
                break
    terms = []  # (C, S, the larger term) per component
    for c, m in zip(comps, owned):
        s = c | m
        k = _degree_term(closed, c, s)
        packed = used = 0
        # N[v] & C is N_F[v] for a free v of S and N_F(v) for a marked one
        for dom in sorted([a & c for a in select(closed, s)],
                          key=int.bit_count):
            if not dom & used:
                used |= dom
                packed += 1
        terms.append((c, s, max(k, packed)))
    total = sum(t for _, _, t in terms)
    # a term of 1 is one vertex dominating S: a cover, no search needed
    if total == ub - 1 and any(t > 1 and c.bit_count() <= _COVER_MAX_FREE
                               and not _has_cover(closed, c, s, t)
                               for c, s, t in terms):
        return ub
    return total


def _degree_term(closed, dom: int, s: int) -> float:
    """The least k whose k largest values |N[v] & s|, over v in dom, sum
    to at least |s|; inf when all of them fall short."""
    need = s.bit_count()
    vals = sorted([(a & s).bit_count() for a in select(closed, dom)],
                  reverse=True)
    return next((i for i, r in enumerate(accumulate(vals), 1) if r >= need),
                math.inf)


def _has_cover(closed, c: int, s: int, t: int) -> bool:
    """False when no independent set of at most t vertices of C dominates S;
    True when one does or the search ran out of budget.

    A loop over a stack of ``(uncovered, allowed, used)`` masks: it
    branches on the uncovered vertex with the fewest allowed dominators,
    taking d removes N[d] from both masks, and a state is cut when its
    ``used`` vertices plus the degree-sequence term on ``uncovered`` exceed
    t.  After ``_COVER_BUDGET`` expansions it stops and answers True.
    """
    stack = [(s, c, 0)]
    for _ in range(_COVER_BUDGET):
        if not stack:
            return False
        uncovered, allowed, used = stack.pop()
        if not uncovered:
            return True
        if used + _degree_term(closed, allowed, uncovered) > t:
            continue
        v = min(bits(uncovered), key=lambda u: (closed[u] & allowed).bit_count())
        for d in reversed(bits(closed[v] & allowed)):
            stack.append((uncovered & ~closed[d], allowed & ~closed[d], used + 1))
    return bool(stack)


def _branch_all(g: MarkedGraph, x: int) -> list:
    """x or one of its free neighbors joins the solution."""
    return [(1 << v, 0, 0) for v in [x] + bits(g.base.adj[x] & g.free_mask)]


def _branch_mark(u: int, nbrs: list) -> list:
    """u or one of its free neighbors nbrs joins the solution, in that order;
    the neighbors tried before are marked."""
    branches = [(1 << u, 0, 0)]
    tried = 0
    for v in nbrs:
        branches.append((1 << v, tried, 0))
        tried |= 1 << v
    return branches


def _branch_one(x: int) -> list:
    """x joins the solution, or it is marked."""
    return [(1 << x, 0, 0), (0, 1 << x, 0)]


def _branch_delete(x: int) -> list:
    """x joins the solution, or it is deleted but not marked: a clique in
    its neighborhood guarantees a dominator in every child solution."""
    return [(1 << x, 0, 0), (0, 0, 1 << x)]


def _dispatch(g: MarkedGraph, ub: float):
    """First applicable rule in listing order; returns (case, branches).

    ``branches`` lists the rule's children in search order as mask triples
    ``(take, mark, drop)``: the free vertices the child commits to the
    solution, and those it marks or deletes; a leaf has none.  Ahead of the
    rules, a node whose lower bound (``_lower_bound``) is at least the
    exclusive upper bound ``ub`` is PRUNED; with ``ub`` infinite the bound
    is not computed.
    """
    if ub <= 0:
        return PRUNED, ()
    free, marked = g.free_mask, g.marked_mask
    if not free | marked:
        return EMPTY, ()
    adj = g.base.adj
    if any(not a & free for a in select(adj, marked)):
        return 1, ()

    comps = g.component_masks()
    if ub < math.inf and _lower_bound(g, comps, ub) >= ub:
        return PRUNED, ()
    deg = g.degrees()  # past the bound: a cut node needs no F-degrees
    others = non_cliques(comps, deg)
    if not others:
        u5 = next((u for u in bits(free) if deg[u] >= 5), None)
        if u5 is not None:
            return 2, _branch_all(g, u5)
        u4 = next((u for u in bits(free) if deg[u] == 4), None)
        if u4 is not None:
            return 3, _branch_one(u4)
        return CSP_ENDGAME, ()

    m1 = next((u for u in bits(marked) if deg[u] == 1), None)
    if m1 is not None:
        # the only free neighbor of a marked vertex is forced
        return 5, [(adj[m1] & free, 0, 0)]

    for comp in others:  # no clique, so at least 3 vertices
        sides = g.bipartite_sides(comp)
        if sides is not None:
            # one side joins the solution
            return 6, [(side, 0, 0) for side in sides]

    v7 = _find_case7_triangle(g, deg)
    if v7 is not None:
        return 7, _branch_delete(v7)

    u = _branch_candidates(g, others, deg)[0]
    d = deg[u]
    nbrs = sorted(bits(adj[u] & free), key=lambda v: (deg[v], v))
    if d == 1:
        return 8, _branch_all(g, u)
    if d == 2:
        if deg[nbrs[0]] <= 4:
            return 9, _branch_mark(u, nbrs)
        return 10, _branch_all(g, u)
    if d == 3:
        if all(deg[v] == 3 for v in nbrs):
            return 11, _branch_one(case11_select(g, u))
        v4 = next((v for v in nbrs if deg[v] == 4), None)
        if v4 is not None:
            return 12, _branch_one(v4)
        v5 = next((v for v in nbrs if deg[v] == 5), None)
        if v5 is not None:
            return 13, [(1 << u, 0, 0), (1 << v5, 0, 0),
                        (0, 1 << u | 1 << v5, 0)]
        if sum(1 for v in nbrs if deg[v] == 3) >= 2:
            if g.is_clique_mask(adj[u] & free):
                return 14, _branch_delete(min(nbrs, key=lambda v: (-deg[v], v)))
            return 15, _branch_mark(u, nbrs)
        return 16, _branch_all(g, u)
    if d == 4:
        return 17, _branch_one(u)
    return 18, _branch_all(g, u)


def dispatch_case(g: MarkedGraph) -> CaseId:
    """The rule of the algorithm listing that applies to g."""
    return _dispatch(g, math.inf)[0]


def _children(g: MarkedGraph, branches):
    """The children of a branching node in search order, each built only
    when it is asked for: pairs ``(take, child)`` of the mask of vertices
    the branch commits and the instance left to solve, for each mask
    triple ``(take, mark, drop)`` of ``branches``.  N[take] leaves the
    graph, and the marked and deleted vertices leave the free set."""
    closed, free, marked = g.base.closed, g.free_mask, g.marked_mask
    for take, mark, drop in branches:
        nbrs = 0
        for a in select(closed, take):
            nbrs |= a
        yield take, g.child(free & ~(nbrs | mark | drop), (marked | mark) & ~nbrs)


def _greedy_ids(g: MarkedGraph) -> Optional[int]:
    """The mask of a greedy independent dominating set of g, or None when
    the greedy choice leaves a marked vertex undominated.

    It repeatedly takes the undominated free vertex that dominates the most
    undominated vertices, the smallest identifier on ties; every free vertex
    is then dominated, and the result is kept only if the mask checker
    that ``oracle.check_ids`` wraps passes.
    A heap on ``(-gain, index)`` holds the candidates; gains only fall, so
    each stored gain (at first the vertex count) bounds the current one: an
    entry popped with its current gain is the pick, a stale one goes back.
    """
    closed, free = g.base.closed, g.free_mask
    undominated = free | g.marked_mask
    heap = [(-undominated.bit_count(), v) for v in bits(free)]  # sorted: a heap
    chosen = 0
    while heap:
        gain, v = heapq.heappop(heap)
        if not undominated >> v & 1:
            continue  # dominated: never a candidate again
        now = -(closed[v] & undominated).bit_count()
        if now != gain:
            heapq.heappush(heap, (now, v))
        else:
            chosen |= 1 << v
            undominated &= ~closed[v]
    return chosen if _is_ids(g, chosen) else None


def _check_marked_degrees(g: MarkedGraph, prefix: str = "") -> None:
    """The input contract, also kept by every child: each marked vertex has
    at most 4 free neighbors."""
    bad = overfull_marked(g.base.adj, g.free_mask, g.marked_mask)
    if bad is not None:
        raise SolverError(f"{prefix}marked vertex {g.base.ids[bad]} has F-degree > 4")


def solve(g: MarkedGraph, *, assert_mode: bool = False,
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
    lower bound is at least the best size found so far minus the vertices
    committed above it is cut and counted as case ``"pruned"``.  The bound
    (``_lower_bound``) takes, per free component, the larger of a
    degree-sequence bound and a packing bound on the solution vertices
    needed to dominate the component and the marked vertices only it can
    dominate; when that sum is one short of the node's upper bound, a
    search bounded in size and expansions asks each component whether an
    independent set of its term's size dominates that set, and a
    component where none does cuts the node.  The root is never cut.
    ``prune=False`` is paper mode: it runs the whole branch-and-reduce tree
    the paper analyses, with the same nodes, leaves, case counts and
    witness as before pruning existed.  Both modes return the same
    solution.

    The search is one loop over an explicit stack, not a recursion: it
    changes no process-global state, so several threads may solve at once.
    """
    _check_marked_degrees(g, "input contract violated: ")
    stats = SearchStats()
    # open nodes, root first: [graph, case, children, ub, best, current take]
    stack: list = []
    # an incumbent of size k lets the root look for solutions of size <= k:
    # the first optimum in search order, paper mode's witness, is still found
    incumbent = _greedy_ids(g) if prune else None
    node, ub = g, math.inf if incumbent is None else incumbent.bit_count() + 1
    while True:
        stats.nodes += 1
        stats.max_depth = max(stats.max_depth, len(stack))
        case, branches = _dispatch(node, ub)
        stats.count(case)
        if on_node is not None:
            on_node(len(stack), node, case)
        if assert_mode:
            _check_marked_degrees(node)
        if case in (EMPTY, 1, PRUNED, CSP_ENDGAME):
            stats.leaves += 1
            sol = 0 if case == EMPTY else None
            if case == CSP_ENDGAME and (found := csp.solve_clique_union(node)).feasible:
                sol = node.base.mask(found.witness)
        else:  # handing None to the node just opened keeps its best
            stack.append([node, case, _children(node, branches), ub, None, 0])
            sol = None
        # hand sol up, closing each node whose children are all solved
        while stack:
            frame = stack[-1]
            parent, parent_case, children, parent_ub, best, taken = frame
            if sol is not None:  # lift it by its branch's vertices; ties keep best
                sol |= taken
                if best is None or sol.bit_count() < best.bit_count():
                    best = frame[4] = sol
            taken, node = next(children, (0, None))
            if node is not None:
                break
            stack.pop()
            sol = best
        else:  # the root's result, decoded once
            return (INFEASIBLE if sol is None else
                    Solution(sol.bit_count(), g.base.decode(sol))), stats
        if assert_mode:
            if node.free_mask.bit_count() >= parent.free_mask.bit_count():
                raise SolverError("child does not shrink the free vertex set")
            if parent_case != 5:  # forcing, not branching
                drop = measure(parent) - measure(node)
                if drop <= 1e-12:
                    raise SolverError(f"measure did not decrease (drop={drop})")
        frame[5] = taken
        bound = parent_ub if best is None or not prune else min(parent_ub, best.bit_count())
        ub = bound - taken.bit_count()
