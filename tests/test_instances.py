import pytest
from hypothesis import given, settings, strategies as st

from conftest import complete, f_degrees
from midsolve import instances
from midsolve.graph import MarkedGraph
from midsolve.instances import (MARK_ATTEMPTS, InstanceFormatError,
                                _SplitMix64, gen_lower_bound, gen_random,
                                mark_random, read_graph, write_graph)


class TestLowerBoundFamily:
    def test_l1_is_an_edge(self):
        g = gen_lower_bound(1)
        assert g.free == {1, 2}
        assert list(g.edges()) == [(1, 2)]

    def test_sizes(self):
        for l in (1, 2, 5, 9):
            g = gen_lower_bound(l)
            assert len(g.free) == 2 * l
            assert g.edge_count() == 4 * l - 3
            assert not g.marked

    def test_l3_edges(self):
        g = gen_lower_bound(3)
        assert sorted(g.edges()) == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
                                     (3, 5), (4, 5), (4, 6), (5, 6)]

    def test_degrees(self):
        deg = f_degrees(gen_lower_bound(4))
        # top layer vertices u_l, v_l have degree 3 and 2; u_1 has degree 2
        assert deg[7] == 3
        assert deg[8] == 2
        assert deg[1] == 2
        # interior vertices have degree 4
        assert deg[3] == 4
        assert deg[4] == 4

    def test_invalid_l(self):
        with pytest.raises(ValueError):
            gen_lower_bound(0)


class TestSplitMix64:
    def test_known_stream(self):
        # reference values for seed 1234567 from the published algorithm
        rng = _SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_seed_zero_stream(self):
        rng = _SplitMix64(0)
        assert rng.next_u64() == 16294208416658607535

    def test_random_in_unit_interval(self):
        rng = _SplitMix64(42)
        vals = [rng.random() for _ in range(100)]
        assert all(0.0 <= x < 1.0 for x in vals)

    def test_below_in_range(self):
        rng = _SplitMix64(42)
        assert all(0 <= rng.below(7) < 7 for _ in range(200))

    def test_shuffle_is_permutation(self):
        rng = _SplitMix64(5)
        items = list(range(10))
        rng.shuffle(items)
        assert sorted(items) == list(range(10))
        assert items != list(range(10))  # seed 5 does move something


class TestGenRandom:
    def test_deterministic(self):
        a, b = gen_random(12, 0.3, 9), gen_random(12, 0.3, 9)
        assert a == b

    def test_seed_changes_graph(self):
        assert gen_random(12, 0.3, 9) != gen_random(12, 0.3, 10)

    def test_extreme_probabilities(self):
        assert gen_random(6, 0.0, 1).edge_count() == 0
        assert gen_random(6, 1.0, 1).edge_count() == 15

    def test_vertices_are_one_to_n(self):
        assert gen_random(7, 0.5, 3).vertices == set(range(1, 8))

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            gen_random(5, 1.5, 0)

    def test_density_roughly_matches_p(self):
        g = gen_random(60, 0.25, 123)
        possible = 60 * 59 // 2
        assert 0.18 <= g.edge_count() / possible <= 0.32


class TestMarkRandom:
    def test_fraction_zero_is_identity(self):
        g = gen_random(10, 0.3, 1)
        assert mark_random(g, 0.0, 5) == g

    def test_marked_count(self):
        g = gen_random(20, 0.2, 2)
        h = mark_random(g, 0.25, 3)
        assert len(h.marked) == 5
        assert h.vertices == g.vertices

    def test_contract_holds(self):
        for seed in range(25):
            g = gen_random(18, 0.4, seed)
            h = mark_random(g, 0.3, seed + 50)
            deg = f_degrees(h)
            for m in h.marked:
                assert deg[m] <= 4

    def test_deterministic(self):
        g = gen_random(15, 0.3, 4)
        assert mark_random(g, 0.4, 9) == mark_random(g, 0.4, 9)

    def test_fallback_unmarks_violators(self, monkeypatch):
        # K6 at fraction 1/6: every draw marks one vertex, which keeps 5 free
        # neighbors, so every draw fails and the fallback unmarks it
        draws, mark_ok = [], instances._mark_ok

        def spy(nbrs, marked):
            draws.append(mark_ok(nbrs, marked))
            return draws[-1]

        monkeypatch.setattr(instances, "_mark_ok", spy)
        g = complete(6)
        h = mark_random(g, 1 / 6, 0)
        assert draws == [False] * MARK_ATTEMPTS
        assert not h.marked and h == g

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            mark_random(gen_random(5, 0.2, 0), -0.1, 0)

    def test_same_graphs_as_on_identifier_sets(self):
        inputs = []
        for seed in range(40):
            g = gen_random(8 + seed % 23, 0.1 + seed % 6 * 0.1, seed)
            verts = sorted(g.vertices)
            # a marked input on a wider relabelling: every fifth vertex
            # deleted, every third marked
            kept = [v for v in verts if v % 5]
            inputs += [g, g.induced([v for v in kept if v % 3], [v for v in kept if not v % 3]),
                       mark_random(g, 0.3, seed)]
        fallbacks = 0
        for k, g in enumerate(inputs):
            for fraction in (0.0, 0.2, 0.5, 0.9):
                want, fell_back = mark_on_identifier_sets(g, fraction, k)
                got = mark_random(g, fraction, k)
                assert (got.free, got.marked, list(got.edges())) == \
                    (want.free, want.marked, list(want.edges())), (g, fraction)
                fallbacks += fell_back
        assert fallbacks >= 20


def mark_on_identifier_sets(g, fraction, seed):
    """``mark_random`` on identifier sets and ``g.neighbors``, as a reference,
    and whether it fell back to unmarking."""
    verts = sorted(g.vertices)
    count = round(fraction * len(verts))
    nbrs = {v: g.neighbors(v) for v in verts}
    rng = _SplitMix64(seed)
    for _ in range(MARK_ATTEMPTS):
        pool = list(verts)
        rng.shuffle(pool)
        marked = set(pool[:count])
        if all(len(nbrs[v] - marked) <= 4 for v in marked):
            return MarkedGraph(set(verts) - marked, marked, g.edges()), False
    while bad := sorted(v for v in marked if len(nbrs[v] - marked) > 4):
        marked.discard(bad[0])
    return MarkedGraph(set(verts) - marked, marked, g.edges()), True


class TestReadGraph:
    def test_round_trip_with_marks(self):
        g = MarkedGraph({1, 3}, {2}, [(1, 2), (2, 3), (1, 3)])
        assert read_graph(write_graph(g)) == g

    def test_comments_and_blank_lines(self):
        text = "c hello\n\np mids 2 1\nc mid-stream\ne 1 2\n"
        g = read_graph(text)
        assert g.free == {1, 2} and list(g.edges()) == [(1, 2)]

    def test_missing_header(self):
        with pytest.raises(InstanceFormatError, match="missing"):
            read_graph("c only a comment\n")

    def test_edge_before_header(self):
        with pytest.raises(InstanceFormatError, match="before header"):
            read_graph("e 1 2\np mids 2 1\n")

    def test_duplicate_header(self):
        with pytest.raises(InstanceFormatError, match="duplicate header"):
            read_graph("p mids 2 0\np mids 2 0\n")

    def test_malformed_header(self):
        with pytest.raises(InstanceFormatError, match="malformed header"):
            read_graph("p graph 2 0\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(InstanceFormatError, match="out of range"):
            read_graph("p mids 2 1\ne 1 5\n")

    def test_self_loop(self):
        with pytest.raises(InstanceFormatError, match="self-loop"):
            read_graph("p mids 2 1\ne 1 1\n")

    def test_duplicate_edge(self):
        with pytest.raises(InstanceFormatError, match="duplicate edge"):
            read_graph("p mids 2 2\ne 1 2\ne 2 1\n")

    def test_duplicate_mark(self):
        with pytest.raises(InstanceFormatError, match="duplicate mark"):
            read_graph("p mids 2 0\nm 1\nm 1\n")

    def test_unknown_record(self):
        with pytest.raises(InstanceFormatError, match="unknown record"):
            read_graph("p mids 2 0\nx 1\n")

    def test_edge_count_mismatch(self):
        with pytest.raises(InstanceFormatError, match="announces"):
            read_graph("p mids 3 2\ne 1 2\n")

    def test_diagnostic_line_numbers(self):
        with pytest.raises(InstanceFormatError, match="line 3"):
            read_graph("p mids 3 1\ne 1 2\ne 1 2\n")


class TestWriteGraph:
    def test_canonical_order(self):
        g = MarkedGraph({2, 3}, {1}, [(3, 2), (1, 3), (1, 2)])
        assert write_graph(g) == ("p mids 3 3\n"
                                  "e 1 2\ne 1 3\ne 2 3\n"
                                  "m 1\n")

    def test_empty_graph(self):
        g = read_graph("p mids 0 0\n")
        assert write_graph(g) == "p mids 0 0\n"

    def test_non_contiguous_ids_rejected(self):
        g = MarkedGraph({2, 5}, set(), [(2, 5)])
        with pytest.raises(InstanceFormatError):
            write_graph(g)

    @given(n=st.integers(1, 8), mask=st.integers(0, 2 ** 20), marks=st.integers(0, 255))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, n, mask, marks):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        marked = {v for v in range(1, n + 1) if marks >> (v - 1) & 1}
        g = MarkedGraph(set(range(1, n + 1)) - marked, marked, edges)
        assert read_graph(write_graph(g)) == g
        # a second round trip is byte-identical (canonical form)
        assert write_graph(read_graph(write_graph(g))) == write_graph(g)
