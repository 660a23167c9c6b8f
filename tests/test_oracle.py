import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete, complete_bipartite, cycle, from_edges, path, star
from midsolve.graph import MarkedGraph, plain_graph
from midsolve.instances import gen_random, mark_random
from midsolve.oracle import (EXHAUSTIVE_LIMIT, OracleError, check_ids,
                             enumerate_maximal_independent_sets,
                             exhaustive_mids, mis_enumeration_mids)
from midsolve.solution import Solution
from midsolve.solver import solve


def reference_maximal_independent_sets(g):
    """The maximal independent sets of a plain graph by include/exclude
    recursion with a maximality filter at the leaves: slow and plain on
    purpose, a reference for the pivoted enumeration."""
    verts = sorted(g.free)

    def rec(idx, chosen):
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


class TestCheckIds:
    def test_c4_opposite_pair(self):
        assert check_ids(cycle(4), {0, 2})
        assert check_ids(cycle(4), {1, 3})

    def test_adjacent_pair_rejected(self):
        assert not check_ids(cycle(4), {0, 1})

    def test_non_dominating_rejected(self):
        assert not check_ids(path(5), {0})

    def test_marked_member_rejected(self):
        g = from_edges([(0, 1)], marked=[0])
        assert not check_ids(g, {0})

    def test_marked_must_be_dominated(self):
        g = from_edges([(0, 1), (1, 2)], marked=[2])
        assert check_ids(g, {1})
        assert not check_ids(g, {0})

    def test_empty_set_on_empty_graph(self):
        assert check_ids(plain_graph([], []), set())

    def test_unknown_vertex_rejected(self):
        # 99 is in no graph; 2 is in the relabelling the induced subgraph
        # shares with path(3), but not in the subgraph
        assert not check_ids(path(3), {99})
        assert not check_ids(path(3).induced({0, 1}, ()), {2})


class TestExhaustive:
    def test_star_center(self):
        sol = exhaustive_mids(star(4))
        assert sol.size == 1 and sol.witness == {0}

    def test_c6(self):
        assert exhaustive_mids(cycle(6)).size == 2

    def test_k33_takes_a_side(self):
        # independence forces the set into one side, which must be whole
        sol = exhaustive_mids(complete_bipartite(3, 3))
        assert sol.size == 3
        assert set(sol.witness) in ({0, 1, 2}, {3, 4, 5})

    def test_infeasible(self):
        assert not exhaustive_mids(MarkedGraph([], [1], [])).feasible

    def test_guard(self):
        g = plain_graph(range(EXHAUSTIVE_LIMIT + 1), [])
        with pytest.raises(OracleError):
            exhaustive_mids(g)

    def test_witness_is_lexicographically_first(self):
        # both {0, 2} and {1, 3} work on C4; subset order finds {0, 2} first
        assert set(exhaustive_mids(cycle(4)).witness) == {0, 2}


class TestMisEnumeration:
    def test_p4_sets(self):
        sets = set(enumerate_maximal_independent_sets(path(4)))
        assert sets == {frozenset({0, 2}), frozenset({0, 3}), frozenset({1, 3})}

    def test_counts_on_cycles(self):
        # C5 has 5 maximal independent sets, C6 has 5
        assert len(list(enumerate_maximal_independent_sets(cycle(5)))) == 5
        assert len(list(enumerate_maximal_independent_sets(cycle(6)))) == 5

    def test_complete_graph(self):
        sets = list(enumerate_maximal_independent_sets(complete(4)))
        assert sorted(sets, key=sorted) == [frozenset({i}) for i in range(4)]

    def test_marked_graph_enumerates_free_part(self):
        # the maximal independent sets of G[F] = {0 - 1}; only {1}
        # dominates the marked vertex 2
        g = from_edges([(0, 1), (1, 2)], marked=[2])
        assert set(enumerate_maximal_independent_sets(g)) == {
            frozenset({0}), frozenset({1})}
        assert repr(mis_enumeration_mids(g)) == "Found(1, [1])"

    def test_isolated_vertices_make_one_set(self):
        # the stack keeps one frame per chosen vertex: no Python recursion
        sets = list(enumerate_maximal_independent_sets(
            plain_graph(range(1100), [])))
        assert sets == [frozenset(range(1100))]

    @pytest.mark.parametrize("seed", range(60))
    def test_matches_reference(self, seed):
        g = gen_random(1 + seed % 14, 0.1 + (seed % 5) * 0.15, seed)
        sets = list(enumerate_maximal_independent_sets(g))
        ref = list(reference_maximal_independent_sets(g))
        assert len(sets) == len(set(sets))
        assert set(sets) == set(ref)
        best = min(ref, key=lambda s: (len(s), sorted(s)))
        assert mis_enumeration_mids(g) == Solution.found(len(best), best)

    def test_no_duplicates(self):
        sets = list(enumerate_maximal_independent_sets(gen_random(9, 0.3, 4)))
        assert len(sets) == len(set(sets))


class TestRoutesAgree:
    @given(n=st.integers(1, 6), mask=st.integers(0, 2 ** 15 - 1),
           marks=st.integers(0, 2 ** 6 - 1))
    @settings(max_examples=150, deadline=None)
    def test_exhaustive_vs_mis_enumeration(self, n, mask, marks):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        g = plain_graph(range(n), edges)
        a = exhaustive_mids(g)
        b = mis_enumeration_mids(g)
        assert a.size == b.size
        assert check_ids(g, a.witness) and check_ids(g, b.witness)
        marked = {v for v in range(n) if marks >> v & 1}
        g = MarkedGraph(set(range(n)) - marked, marked, edges)
        a = exhaustive_mids(g)
        b = mis_enumeration_mids(g)
        assert a.size == b.size
        assert not a.feasible or check_ids(g, a.witness) and check_ids(g, b.witness)

    @pytest.mark.parametrize("n", [30, 40, 50])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_solver_beyond_exhaustive_limit(self, n, seed):
        plain = gen_random(n, 0.2, seed)
        for g in (plain, mark_random(plain, 0.2, seed),
                  mark_random(gen_random(n, 0.1, seed), 0.2, seed)):
            sol, _ = solve(g)
            ref = mis_enumeration_mids(g)
            assert (sol.feasible, sol.size) == (ref.feasible, ref.size)
            assert not sol.feasible or check_ids(g, sol.witness)

    def test_every_enumerated_set_is_an_ids(self):
        g = gen_random(8, 0.4, 11)
        for s in enumerate_maximal_independent_sets(g):
            assert check_ids(g, s)
