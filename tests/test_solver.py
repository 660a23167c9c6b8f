import json
import math
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (complete, connected_labeled_graphs, cycle, f_degrees,
                      from_edges, path, plain_graph, seeded_marked_graphs, star)
from midsolve import solver
from midsolve.graph import MarkedGraph, bits
from midsolve.instances import gen_lower_bound, gen_random, mark_random
from midsolve.oracle import check_ids, exhaustive_mids
from midsolve.solution import INFEASIBLE, Solution
from midsolve.solver import (CSP_ENDGAME, EMPTY, PRUNED, SolverError,
                             _branch_all, _branch_mark, _branch_one,
                             _children, _dispatch, _find_case7_triangle,
                             _greedy_ids, _lower_bound, case9_candidates,
                             case11_select, dispatch_case, solve)


def assert_matches_oracle(g):
    sol, stats = solve(g, assert_mode=True)
    ref = exhaustive_mids(g)
    assert sol.feasible == ref.feasible
    assert sol.size == ref.size
    if sol.feasible:
        assert check_ids(g, sol.witness)
    assert stats.nodes >= stats.leaves >= 1
    return sol, stats


EXPECTED_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def best_of_children(g, branches):
    """The children of one rule, each solved on its own: the best solution
    plus the vertices its branch commits, the earlier branch on ties."""
    best = INFEASIBLE
    for taken, child in _children(g, branches):
        sol = solve(child)[0]
        size = sol.size + taken.bit_count() if sol.feasible else None
        if size is not None and (not best.feasible or size < best.size):
            best = Solution.found(size, sol.witness | g.base.decode(taken))
    return best


def pendant_clique():
    """K4 on {0,1,2,3} whose vertex 3 alone reaches a triangle {4,5,6}."""
    return plain_graph(range(7), [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                  (2, 3), (3, 4), (3, 5), (3, 6),
                                  (4, 5), (4, 6), (5, 6)])


class TestSolveBasics:
    def test_lower_bound_l2(self):
        sol, _ = solve(gen_lower_bound(2))
        assert sol.size == 1
        # either v_1 (vertex 2) or u_2 (vertex 3) dominates all four vertices
        assert sol.witness in ({2}, {3})

    def test_lone_marked_vertex_infeasible(self):
        sol, _ = solve(MarkedGraph([], [1], []))
        assert not sol.feasible

    def test_c5(self):
        sol, _ = solve(cycle(5))
        assert sol.size == 2
        assert check_ids(cycle(5), sol.witness)

    def test_empty_graph(self):
        sol, stats = solve(plain_graph([], []))
        assert sol.size == 0 and sol.witness == frozenset()
        assert stats.leaves == 1

    def test_precondition_rejected(self):
        g = from_edges([(0, i) for i in range(1, 6)], marked=[0])
        with pytest.raises(SolverError):
            solve(g)

    def test_deterministic_stats(self):
        g = gen_random(20, 0.3, 7)
        _, s1 = solve(g)
        _, s2 = solve(g)
        assert (s1.nodes, s1.leaves, s1.max_depth, s1.case_counts) == \
               (s2.nodes, s2.leaves, s2.max_depth, s2.case_counts)

    def test_case_counts_bounded_by_nodes(self):
        # every node counts one case; the terminal cases are the leaves
        _, stats = solve(gen_random(20, 0.3, 7))
        assert sum(stats.case_counts.values()) == stats.nodes
        terminal = sum(stats.case_counts.get(k, 0)
                       for k in (EMPTY, 1, CSP_ENDGAME, PRUNED))
        assert terminal == stats.leaves

    # (nodes, leaves, max_depth, case_counts, witness) of fixed inputs in
    # paper mode, so a refactor of the search must reproduce the same trees
    PINNED_TREES = [
        (lambda: gen_random(20, 0.3, 7),
         (97, 54, 7, {CSP_ENDGAME: 34, EMPTY: 16, 1: 4, 5: 2, 6: 10, 7: 4,
                      8: 13, 9: 12, 12: 2}, {6, 8, 12, 20})),
        (lambda: mark_random(gen_random(30, 0.15, 3), 0.2, 3),
         (85, 33, 8, {CSP_ENDGAME: 25, EMPTY: 3, 1: 5, 5: 28, 6: 2, 8: 14,
                      9: 7, 10: 1}, {8, 16, 19, 22, 23, 24, 30})),
        (lambda: gen_lower_bound(8),
         (94, 63, 5, {CSP_ENDGAME: 41, EMPTY: 22, 9: 31}, {1, 4, 9, 14})),
    ]

    @pytest.mark.parametrize("make, expected", PINNED_TREES,
                             ids=["random20", "marked30", "lower_bound8"])
    def test_search_trees_pinned(self, make, expected):
        sol, stats = solve(make(), prune=False)
        assert (stats.nodes, stats.leaves, stats.max_depth,
                stats.case_counts, sol.witness) == expected

    # the same inputs with pruning on: the same witnesses from smaller trees
    PINNED_PRUNED_TREES = [
        (lambda: gen_random(20, 0.3, 7),
         (11, 6, 4, {CSP_ENDGAME: 2, PRUNED: 4, 6: 1, 8: 4},
          {6, 8, 12, 20})),
        (lambda: mark_random(gen_random(30, 0.15, 3), 0.2, 3),
         (21, 9, 7, {CSP_ENDGAME: 1, EMPTY: 1, PRUNED: 6, 1: 1, 5: 6, 6: 1,
                     8: 3, 9: 1, 10: 1}, {8, 16, 19, 22, 23, 24, 30})),
        (lambda: gen_lower_bound(8),
         (13, 9, 4, {EMPTY: 1, PRUNED: 8, 9: 4}, {1, 4, 9, 14})),
    ]

    @pytest.mark.parametrize("make, expected", PINNED_PRUNED_TREES,
                             ids=["random20", "marked30", "lower_bound8"])
    def test_pruned_search_trees_pinned(self, make, expected):
        sol, stats = solve(make())
        assert (stats.nodes, stats.leaves, stats.max_depth,
                stats.case_counts, sol.witness) == expected

    # benchmark pool families rebuilt from their generators
    POOL_FAMILIES = {
        "lower-bound-l16": lambda seed: gen_lower_bound(16),
        "marked-n40-p0.15-f0.2":
            lambda seed: mark_random(gen_random(40, 0.15, seed), 0.2, seed),
    }

    def test_benchmark_pool_trees(self):
        # lower-bound-l16/0 and the marked benchmark pool members with at
        # most 1,200 nodes, against the paper-mode trees frozen in the
        # benchmark's expected answers (read, never written)
        frozen = json.loads(EXPECTED_PATH.read_text())["instances"]
        pool = [(key, want) for key, want in frozen.items()
                if key == "lower-bound-l16/0"
                or key.startswith("marked-n40-p0.15-f0.2/") and want["nodes"] <= 1200]
        assert len(pool) == 18
        for key, want in pool:
            family, seed = key.rsplit("/", 1)
            g = self.POOL_FAMILIES[family](int(seed))
            paper, stats = solve(g, prune=False)
            witness = sorted(paper.witness) if paper.feasible else None
            assert (stats.nodes, stats.leaves, paper.size, witness) == \
                (want["nodes"], want["leaves"], want["size"], want["witness"]), key
            assert solve(g)[0] == paper, key


class TestDispatch:
    def test_lower_bound_family_is_case9(self):
        for l in (3, 5, 8):
            assert dispatch_case(gen_lower_bound(l)) == 9

    def test_single_k5_is_case3(self):
        assert dispatch_case(complete(5)) == 3

    def test_single_k7_is_case2(self):
        assert dispatch_case(complete(7)) == 2

    def test_small_cliques_go_to_endgame(self):
        g = plain_graph(range(4), [(0, 1), (1, 2), (0, 2)])
        assert dispatch_case(g) == CSP_ENDGAME

    def test_undominatable_marked_is_case1(self):
        assert dispatch_case(MarkedGraph([1], [2], [])) == 1

    def test_forced_marked_is_case5(self):
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], marked=[0])
        assert dispatch_case(g) == 5

    def test_complete_bipartite_component_is_case6(self):
        assert dispatch_case(path(3)) == 6

    def test_empty(self):
        assert dispatch_case(plain_graph([], [])) == "empty"

    def test_case14_pendant_clique(self):
        g = pendant_clique()
        assert dispatch_case(g) == 14
        assert_matches_oracle(g)

    # seeded random plain graphs landing on each remaining branching rule
    CASE_SEEDS = {
        6: (8, 0.24, 2),
        7: (7, 0.31, 136),
        8: (9, 0.31, 3),
        9: (11, 0.45, 5),
        10: (16, 0.31, 10),
        11: (6, 0.45, 3015),
        12: (8, 0.52, 62),
        13: (10, 0.45, 19),
        15: (7, 0.38, 1096),
        16: (19, 0.38, 88),
        17: (11, 0.52, 20),
        18: (12, 0.52, 6),
    }

    @pytest.mark.parametrize("case", sorted(CASE_SEEDS))
    def test_random_instances_cover_cases(self, case):
        n, p, seed = self.CASE_SEEDS[case]
        g = gen_random(n, p, seed)
        assert dispatch_case(g) == case
        assert_matches_oracle(g)


class TestBranchingProcedures:
    def test_branch_all_isolated_vertex(self):
        g = plain_graph(range(3), [(1, 2)])  # 0 isolated
        sol = best_of_children(g, _branch_all(g, 0))
        assert sol.size == 2 and 0 in sol.witness

    def test_branch_all_triangle(self):
        g = complete(3)
        assert best_of_children(g, _branch_all(g, 0)).size == 1

    def test_branch_all_star_degree5(self):
        g = star(5)
        assert exhaustive_mids(g).size == 1
        sol = best_of_children(g, _branch_all(g, 0))
        assert sol.size == 1 and sol.witness == {0}

    def test_branch_mark_c6(self):
        g = cycle(6)
        sol = best_of_children(g, _branch_mark(0, [1, 5]))
        assert sol.size == 2
        assert check_ids(g, sol.witness)

    def test_branch_mark_marks_earlier_neighbors(self):
        # degree-2 vertex 0 with nonadjacent neighbors 1 and 2: the third
        # subinstance must carry 1 as a marked vertex
        g = plain_graph(range(5), [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])
        branches = _branch_mark(0, [1, 2])
        assert _dispatch(g, math.inf) == (9, branches)
        children = list(_children(g, branches))
        assert [g.base.decode(taken) for taken, _ in children] == [{0}, {1}, {2}]
        third = children[2][1]
        assert third.marked == {1} and third.free == {3}
        assert best_of_children(g, branches).size == solve(g)[0].size

    def test_branch_one_k5(self):
        assert best_of_children(complete(5), _branch_one(0)).size == 1

    # one graph per branching rule, with the rule the dispatch picks for it
    RULE_GRAPHS = {
        **{case: gen_random(*args) for case, args in TestDispatch.CASE_SEEDS.items()},
        2: complete(7),
        3: complete(5),
        5: from_edges([(0, 1), (1, 2), (2, 3), (3, 4)], marked=[0]),
        14: pendant_clique(),
    }

    @pytest.mark.parametrize("case", sorted(RULE_GRAPHS))
    def test_children_keep_the_optimum(self, case):
        # every rule's children, each solved on its own, hold an optimal
        # solution: the best of them plus its committed vertices
        g = self.RULE_GRAPHS[case]
        got, branches = _dispatch(g, math.inf)
        assert got == case
        sol = best_of_children(g, branches)
        assert sol.size == exhaustive_mids(g).size
        assert check_ids(g, sol.witness)


def lexicographic_case7_triangle(g, deg):
    """Reference scan: the first free triangle in lexicographic order of
    its vertex triple with exactly one vertex of F-degree >= 3."""
    for a in sorted(g.free):
        na = sorted(v for v in g.neighbors(a) & g.free if v > a)
        for i, b in enumerate(na):
            for c in na[i + 1:]:
                if c in g.neighbors(b):
                    big = [v for v in (a, b, c) if deg[v] >= 3]
                    if len(big) == 1:
                        return big[0]
    return None


class TestCase7Triangle:
    def test_matches_the_lexicographic_scan(self):
        found = 0
        graphs = [*connected_labeled_graphs(5), *seeded_marked_graphs(),
                  *(gen_random(n, 0.1 + (n % 4) * 0.05, n) for n in range(20, 41))]
        for g in graphs:
            want = lexicographic_case7_triangle(g, f_degrees(g))
            got = _find_case7_triangle(g, g.degrees())
            assert (None if got is None else g.base.ids[got]) == want, g
            found += want is not None
        assert found > 50

    @pytest.mark.parametrize("edges, big", [
        # (0, 5, 9) with big 9 comes before (1, 2, 3) with big 1
        ([(0, 5), (0, 9), (5, 9), (9, 7), (1, 2), (1, 3), (2, 3), (1, 8)], 9),
        # (0, 5, 6) with big 0 comes before (1, 2, 9), whose small vertex 1
        # is the smallest F-degree-2 vertex
        ([(0, 5), (0, 6), (5, 6), (0, 7), (1, 2), (1, 9), (2, 9), (9, 8)], 0),
    ])
    def test_smallest_triple_wins(self, edges, big):
        g = from_edges(edges)
        assert lexicographic_case7_triangle(g, f_degrees(g)) == big
        case, branches = _dispatch(g, math.inf)
        assert case == 7 and branches[0][0] == g.base.mask({big})


class TestCase11Select:
    def test_prism(self):
        # triangular prism: two triangles joined by a perfect matching
        g = plain_graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                   (3, 5), (0, 3), (1, 4), (2, 5)])
        v = case11_select(g, 0)
        nf = sorted(g.neighbors(v) & g.free)
        span = sum(1 for i in range(len(nf)) for j in range(i + 1, len(nf))
                   if nf[j] in g.neighbors(nf[i]))
        assert span <= 1

    def test_cube_graph(self):
        # Q3 is triangle-free, so every neighborhood spans zero edges
        g = plain_graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 0),
                                   (4, 5), (5, 6), (6, 7), (7, 4),
                                   (0, 4), (1, 5), (2, 6), (3, 7)])
        v = case11_select(g, 0)
        nf = sorted(g.neighbors(v) & g.free)
        assert all(nf[j] not in g.neighbors(nf[i])
                   for i in range(len(nf)) for j in range(i + 1, len(nf)))
        assert dispatch_case(g) == 11
        assert_matches_oracle(g)


class TestCase9Candidates:
    def test_lower_bound_root(self):
        for l in (3, 5, 9):
            assert case9_candidates(gen_lower_bound(l)) == [1, 2 * l]


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(60))
    def test_random_marked_graphs(self, seed):
        n = 4 + seed % 7
        g = mark_random(gen_random(n, 0.35, seed), 0.25, seed + 101)
        assert_matches_oracle(g)

    @given(n=st.integers(1, 6), mask=st.integers(0, 2 ** 15 - 1))
    @settings(max_examples=120, deadline=None)
    def test_plain_graphs_property(self, n, mask):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        assert_matches_oracle(plain_graph(range(n), edges))

    def test_named_small_graphs(self):
        for g in (path(4), cycle(4), cycle(6), cycle(7), complete(6), star(4),
                  star(5), gen_lower_bound(3), gen_lower_bound(4),
                  plain_graph(range(5), [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])):
            assert_matches_oracle(g)


def assert_pruning_exact(g):
    """Pruned size equals the paper-mode and oracle sizes, the pruned witness
    is the paper-mode one and an independent dominating set, and the
    invariant checks of assert mode hold with pruning on."""
    sol, _ = solve(g, assert_mode=True)
    paper, _ = solve(g, prune=False)
    assert sol == paper
    if sol.feasible:
        assert check_ids(g, sol.witness)
    assert sol.size == exhaustive_mids(g).size


class TestPruning:
    def test_connected_labeled_graphs(self):
        for g in connected_labeled_graphs(5):
            assert_pruning_exact(g)

    def test_seeded_marked_graphs(self):
        for g in seeded_marked_graphs():
            assert_pruning_exact(g)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_marked_graphs_up_to_20(self, seed):
        n = 8 + seed % 13
        g = mark_random(gen_random(n, 0.12 + (seed % 5) * 0.06, seed),
                        0.25, seed + 500)
        assert_pruning_exact(g)

    def test_pruned_node_is_a_leaf(self):
        # taking vertex 0 of C6 gives a solution of size 2; every later child
        # that commits a vertex still has a free component left, so it cannot
        # beat 2 and is cut unexpanded
        seen = []
        sol, stats = solve(cycle(6), on_node=lambda d, g, case: seen.append(case))
        assert sol.size == 2
        assert stats.case_counts == {9: 1, 6: 1, EMPTY: 1, PRUNED: 3}
        assert stats.leaves == 4 and seen.count(PRUNED) == 3

    def test_root_is_never_pruned(self):
        # the root's lower bound is at most the optimum, which is at most
        # the greedy incumbent, below the root's ub: a feasible root endgame
        # runs as in paper mode
        g = plain_graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert solve(g)[1].case_counts == solve(g, prune=False)[1].case_counts \
            == {CSP_ENDGAME: 1}
        endgames = 0
        for g in [*connected_labeled_graphs(5), *seeded_marked_graphs()]:
            if dispatch_case(g) == CSP_ENDGAME and exhaustive_mids(g).feasible:
                endgames += 1
                sol, stats = solve(g)
                assert sol.feasible and stats.case_counts == {CSP_ENDGAME: 1}
        assert endgames > 100


def lower_bound(g, ub=math.inf):
    return _lower_bound(g, g.component_masks(), ub)


def degree_ceiling(g):
    """ceil((|C| + |M_C|) / (Delta_C + 1)) for a graph with one free
    component C, whose marked vertices all have a free neighbor, so that
    M_C holds all of them."""
    delta = max(len(g.neighbors(v)) for v in g.free)
    return -(-len(g) // (delta + 1))


def graphs_up_to_16_vertices():
    """Seeded marked graphs on 9..16 vertices that reach the bound, each
    with its optimum size: the feasible ones without a marked vertex that
    no free vertex dominates (case 1 is dispatched before the bound)."""
    for seed in range(2000):
        n = 9 + seed % 8
        g = mark_random(gen_random(n, 0.15 + (seed % 5) * 0.07, seed),
                        0.25 + (seed % 3) * 0.1, seed + 20_000)
        if any(not g.neighbors(u) for u in g.marked):
            continue
        ref = exhaustive_mids(g)
        if ref.feasible:
            yield g, ref.size


class TestLowerBound:
    # with ub = optimum + 1 the cover test runs wherever the cheap terms
    # reach the optimum, and a bound of ub would wrongly cut the node

    def test_at_most_the_optimum(self):
        for g in [*connected_labeled_graphs(5), *seeded_marked_graphs()]:
            if any(not g.neighbors(u) for u in g.marked):
                continue  # case 1 is dispatched before the bound
            ref = exhaustive_mids(g)
            if ref.feasible:
                assert lower_bound(g, ref.size + 1) <= ref.size, g

    def test_at_most_the_optimum_up_to_16_vertices(self):
        checked = 0
        for g, opt in graphs_up_to_16_vertices():
            checked += 1
            assert lower_bound(g, opt + 1) <= opt, g
        assert checked > 1000

    def test_budget_exhausted_proves_nothing(self, monkeypatch):
        # one expansion: a search that has not finished must prove nothing
        monkeypatch.setattr(solver, "_COVER_BUDGET", 1)
        at_optimum = 0  # where the cover test runs
        for g, opt in graphs_up_to_16_vertices():
            assert lower_bound(g, opt + 1) <= opt, g
            at_optimum += lower_bound(g) == opt
        assert at_optimum > 500

    def test_exceeds_the_component_count(self):
        # P7: one component of 7 vertices of degree <= 2, so ceil(7 / 3)
        g = path(7)
        assert len(g.component_masks()) == 1
        assert lower_bound(g) == exhaustive_mids(g).size == 3

    def test_degree_sequence_term(self):
        # C5 on 0..4 with the path 0-5-6-7: vertex 0 has degree 3, the
        # others at most 2, so ceil(8 / 4) = 2, but the two largest values
        # 1 + |N(v)| are 4 + 3 < 8, so three vertices are needed; any two
        # closed neighborhoods inside C5, or inside the path 5-6-7, meet,
        # so the packing has only 2
        g = plain_graph(range(8), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                   (0, 5), (5, 6), (6, 7)])
        assert len(g.component_masks()) == 1
        assert degree_ceiling(g) == 2
        assert lower_bound(g) == exhaustive_mids(g).size == 3

    def test_packing_term_with_a_marked_vertex(self):
        # free path 0-1-2-3-4 with the pendant 5 on 3, and marked 6 on 4:
        # the dominator sets N_F(6) = {4}, N_F[0] = {0, 1} and
        # N_F[5] = {3, 5} are pairwise disjoint, so 3 solution vertices;
        # without the marked vertex the packing finds 2, and the degree
        # sequence 4 + 3 >= 7 gives 2, as does ceil(7 / 4)
        g = from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5), (4, 6)],
                       marked=[6])
        assert len(g.component_masks()) == 1
        assert degree_ceiling(g) == 2
        assert lower_bound(g) == exhaustive_mids(g).size == 3

    def test_independent_cover_term(self, monkeypatch):
        # the double star S(2,2): centers 0 and 1, leaves 2, 3 on 0 and 4, 5
        # on 1.  Both terms give 2 and {0, 1} dominates, but it is not
        # independent, and no other pair dominates, so the cover test of a
        # node with ub = 3 proves 3
        g = plain_graph(range(6), [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
        assert lower_bound(g) == lower_bound(g, 4) == 2
        assert lower_bound(g, 3) == exhaustive_mids(g).size == 3
        # a component above the size limit is not searched
        monkeypatch.setattr(solver, "_COVER_MAX_FREE", 5)
        assert lower_bound(g, 3) == 2

    def test_counts_marked_vertices_of_one_component(self):
        # free path 0-1-2 with marked 3 on 0 and marked 4 on 2, whose
        # dominator sets {0} and {2} are disjoint, so 2 for the path; marked
        # 5 reaches 2 and the free vertex 6 of another component, so it is
        # in neither term, and {6} adds 1
        g = from_edges([(0, 1), (1, 2), (0, 3), (2, 4), (2, 5), (5, 6)],
                       marked=[3, 4, 5])
        assert lower_bound(g) == 2 + 1
        assert exhaustive_mids(g).size == 3


def rescan_greedy_ids(g):
    """The greedy incumbent's mask computed by rescanning every undominated
    free vertex for each pick: the definition ``_greedy_ids`` must match."""
    adj = g.base.adj
    undominated = g.free_mask | g.marked_mask
    chosen = 0
    while g.free_mask & undominated:
        v = max(bits(g.free_mask & undominated),
                key=lambda v: (adj[v] & undominated).bit_count())
        chosen |= 1 << v
        undominated &= ~(adj[v] | 1 << v)
    return chosen if check_ids(g, g.base.decode(chosen)) else None


class TestGreedyIncumbent:
    def test_passes_check_ids_or_is_none(self):
        found = 0
        for g in [*connected_labeled_graphs(5), *seeded_marked_graphs()]:
            incumbent = _greedy_ids(g)
            if incumbent is not None:
                found += 1
                assert check_ids(g, g.base.decode(incumbent))
                assert incumbent.bit_count() >= exhaustive_mids(g).size
        assert found > 1000

    @pytest.mark.parametrize("marked", [False, True])
    def test_same_picks_as_a_full_rescan(self, marked):
        found = 0
        for seed in range(60):
            g = gen_random(5 + seed * 19 % 96, 0.03 + seed % 5 * 0.04, seed)
            if marked:
                g = mark_random(g, 0.1, seed + 1)
            incumbent = _greedy_ids(g)
            assert incumbent == rescan_greedy_ids(g)
            found += incumbent is not None
        assert found >= 30

    def test_none_on_an_infeasible_marked_graph(self):
        # marked 2 needs 0 and marked 3 needs 1, but 0 and 1 are adjacent
        g = from_edges([(0, 1), (0, 2), (1, 3)], marked=[2, 3])
        assert _greedy_ids(g) is None
        assert solve(g)[0] == INFEASIBLE


def relabelled(g, f):
    """g with every identifier v replaced by f(v)."""
    return MarkedGraph(map(f, g.free), map(f, g.marked),
                       [(f(a), f(b)) for a, b in g.edges()])


class TestRelabelledSolve:
    """The search sees only the order of the identifiers: under an
    increasing map the trees are the same and the witness is mapped."""

    @pytest.mark.parametrize("f", [lambda v: 3 * v - 7,
                                   lambda v: -(10 ** 12) + 1000 * v,
                                   lambda v: 2 ** 70 + v ** 3],
                             ids=["3v-7", "negative_sparse", "beyond_64_bits"])
    def test_same_trees_and_mapped_witness(self, f):
        graphs = [gen_random(20, 0.3, 7), mark_random(gen_random(30, 0.15, 3), 0.2, 3),
                  gen_lower_bound(8), *list(seeded_marked_graphs())[:100]]
        for g in graphs:
            h = relabelled(g, f)
            for prune in (True, False):
                (sol, stats), (hsol, hstats) = solve(g, prune=prune), solve(h, prune=prune)
                assert (hstats.nodes, hstats.leaves, hstats.case_counts) == \
                    (stats.nodes, stats.leaves, stats.case_counts), g
                assert hsol.witness == (None if sol.witness is None
                                        else frozenset(map(f, sol.witness))), g


class TestExplicitStack:
    def test_python_stack_does_not_grow_with_depth(self):
        # 300 disjoint 3-vertex paths: one case-6 branching per path
        g = plain_graph(range(900), [(v, v + 1) for v in range(900) if v % 3 != 2])
        seen = set()

        def on_node(depth, graph, case):
            frames, f = 0, sys._getframe().f_back
            while f is not None:
                frames, f = frames + 1, f.f_back
            seen.add((frames, sys.getrecursionlimit()))

        limit = sys.getrecursionlimit()
        sol, stats = solve(g, on_node=on_node)
        assert sol.size == 300 and stats.max_depth == 300
        assert len(seen) == 1 and seen.pop()[1] == limit

    def test_two_threads_solve_at_once(self):
        small = gen_random(16, 0.2, 1)
        large = mark_random(gen_random(32, 0.15, 2), 0.2, 3)
        sequential = [solve(small), solve(large)]
        limit = sys.getrecursionlimit()
        # The small solve starts first and holds at its root until the large
        # one has started, and the large one holds at its root until the
        # small one has returned: the two overlap in a fixed order.
        small_started, large_started, small_done = (threading.Event()
                                                     for _ in range(3))
        results = [None, None]

        def hold(started, wait_for):
            def on_node(depth, graph, case):
                if depth == 0:
                    started.set()
                    assert wait_for.wait(timeout=60)
            return on_node

        def run_small():
            results[0] = solve(small, on_node=hold(small_started, large_started))
            small_done.set()

        def run_large():
            assert small_started.wait(timeout=60)
            results[1] = solve(large, on_node=hold(large_started, small_done))

        threads = [threading.Thread(target=run_small),
                   threading.Thread(target=run_large)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert [(sol, vars(stats)) for sol, stats in results] == \
            [(sol, vars(stats)) for sol, stats in sequential]
        assert sys.getrecursionlimit() == limit


def extra_first_child(monkeypatch, root, child):
    """Give ``root`` the first child ``child(root)``, which commits no vertex,
    before its real ones."""
    real = solver._children

    def children(node, branches):
        if node is root:
            yield 0, child(node)
        yield from real(node, branches)

    monkeypatch.setattr(solver, "_children", children)


class TestAssertMode:
    """Each of assert mode's three checks fails a solve whose search
    breaks it, with its own message."""

    def test_child_that_keeps_the_free_set(self, monkeypatch):
        g = cycle(6)
        extra_first_child(monkeypatch, g, lambda g: g)
        with pytest.raises(SolverError, match="child does not shrink"):
            solve(g, assert_mode=True)

    def test_child_whose_measure_does_not_drop(self, monkeypatch):
        g = cycle(6)
        monkeypatch.setattr(solver, "measure", lambda g: 0.0)
        assert solve(g)[0].size == 2
        with pytest.raises(SolverError, match="measure did not decrease"):
            solve(g, assert_mode=True)

    def test_child_that_marks_a_vertex_of_f_degree_5(self, monkeypatch):
        # a 5-leaf star beside a 6-cycle; the extra child marks the centre
        g = plain_graph(range(12), [(0, i) for i in range(1, 6)]
                        + [(i, 6 + (i - 5) % 6) for i in range(6, 12)])
        extra_first_child(monkeypatch, g, lambda g: g.child(g.free_mask & ~1, 1))
        with pytest.raises(SolverError, match="^marked vertex 0 has F-degree > 4$"):
            solve(g, assert_mode=True)
