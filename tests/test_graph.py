from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import (complete, cycle, f_degrees, from_edges, path,
                      seeded_marked_graphs)
from midsolve.graph import (GraphError, MarkedGraph, bits, non_cliques, overfull_marked,
                            plain_graph, select)
from midsolve.instances import gen_lower_bound, gen_random


def random_marked_graph(draw_n=st.integers(2, 8), seed=st.integers(0, 2 ** 30)):
    """Hypothesis strategy: a small marked graph from an edge bitmask."""

    @st.composite
    def build(draw):
        n = draw(draw_n)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        mask = draw(st.integers(0, 2 ** len(pairs) - 1))
        edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
        marked = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
        return MarkedGraph(set(range(n)) - marked, marked, edges)

    return build()


class TestConstruction:
    def test_free_marked_overlap_rejected(self):
        with pytest.raises(GraphError):
            MarkedGraph({1, 2}, {2}, [])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            plain_graph([1], [(1, 1)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            plain_graph([1, 2], [(1, 3)])

    def test_marked_marked_edges_dropped(self):
        g = MarkedGraph({1}, {2, 3}, [(1, 2), (2, 3)])
        assert list(g.edges()) == [(1, 2)]
        assert f_degrees(g)[3] == 0

    def test_all_marked_neighbors_free(self):
        g = MarkedGraph({1, 4}, {2, 3}, [(1, 2), (2, 3), (3, 4)])
        for m in g.marked:
            assert g.neighbors(m) <= g.free


class TestFDegree:
    def test_free_triangle(self):
        assert complete(3).degrees() == [2, 2, 2]

    def test_marked_with_three_free_neighbors(self):
        g = from_edges([(0, 1), (0, 2), (0, 3)], marked=[0])
        assert g.degrees()[0] == 3

    def test_lower_bound_family_v1(self):
        # vertex 2 is v_1 in the layered family; adjacent to u_1, u_2, v_2
        assert f_degrees(gen_lower_bound(2))[2] == 3

    def test_unknown_vertex(self):
        with pytest.raises(GraphError, match="unknown vertex 99"):
            complete(3).neighbors(99)


class TestInduced:
    def test_identity(self):
        g = from_edges([(0, 1), (1, 2)], marked=[2])
        assert g.induced(g.free, g.marked) == g

    def test_empty(self):
        g = complete(3)
        h = g.induced([], [])
        assert not h.free and not h.marked

    def test_path_center_marked(self):
        g = path(3)  # 0 - 1 - 2
        h = g.induced({0, 2}, {1})
        assert h.marked == {1}
        assert h.neighbors(1) == {0, 2}

    def test_overlap_rejected(self):
        with pytest.raises(GraphError):
            complete(3).induced({0, 1}, {1})

    def test_new_marked_pair_edge_dropped(self):
        g = path(3)
        h = g.induced({1}, {0, 2})
        assert f_degrees(h)[0] == 1 and f_degrees(h)[2] == 1

    @given(random_marked_graph(), st.data())
    def test_never_increases_f_degree(self, g, data):
        # marked vertices never become free again during branching
        keep = data.draw(st.sets(st.sampled_from(sorted(g.vertices))
                                 if g.vertices else st.nothing(), max_size=len(g.vertices)))
        kept_free = sorted(keep & g.free)
        newly_marked = data.draw(st.sets(st.sampled_from(kept_free) if kept_free
                                         else st.nothing(), max_size=len(kept_free)))
        to_mark = (keep & g.marked) | newly_marked
        h = g.induced(keep - to_mark, to_mark)
        before, after = f_degrees(g), f_degrees(h)
        for v in keep:
            assert after[v] <= before[v]


class TestFreeComponents:
    def test_triangle_plus_isolated(self):
        g = plain_graph(range(4), [(0, 1), (1, 2), (0, 2)])
        assert sorted(len(c) for c in g.free_components()) == [1, 3]

    def test_lower_bound_family_connected(self):
        for l in (1, 3, 6):
            assert len(gen_lower_bound(l).free_components()) == 1

    def test_no_free_vertices(self):
        g = MarkedGraph([], [1], [])
        assert g.free_components() == []

    @given(random_marked_graph())
    def test_partition(self, g):
        comps = g.free_components()
        union = set()
        for c in comps:
            assert not (union & c)
            union |= c
        assert union == g.free


class TestClassifyComponent:
    def test_path_three_is_complete_bipartite(self):
        g = path(3)
        kind, x, y = g.classify_component({0, 1, 2})
        assert kind == "complete_bipartite"
        assert x == {1} and y == {0, 2}

    def test_k4_is_clique(self):
        assert complete(4).classify_component(set(range(4))) == ("clique", 4)

    def test_c5_is_other(self):
        assert cycle(5).classify_component(set(range(5))) == ("other",)

    def test_small_sizes_are_cliques(self):
        assert plain_graph([7], []).classify_component({7}) == ("clique", 1)
        assert path(2).classify_component({0, 1}) == ("clique", 2)

    def test_non_component_rejected(self):
        with pytest.raises(GraphError):
            complete(4).classify_component({0, 1})

    @pytest.mark.parametrize("g, verts", [
        (plain_graph(range(4), [(0, 1), (2, 3)]), {0, 1, 2, 3}),
        (from_edges([(0, 1), (1, 2)], marked=[2]), {0, 1, 2}),
        (complete(4), set()),
    ], ids=["two_components", "marked_vertex", "empty"])
    def test_non_component_sets_rejected(self, g, verts):
        with pytest.raises(GraphError):
            g.classify_component(verts)

    @given(random_marked_graph())
    def test_classification_consistent(self, g):
        for comp in g.free_components():
            result = g.classify_component(comp)
            assert result[0] in ("clique", "complete_bipartite", "other")
            clique = g.is_clique_mask(g.base.mask(comp))
            if result[0] == "clique":
                assert clique
                assert result[1] == len(comp)
            elif result[0] == "complete_bipartite":
                assert len(comp) > 2 and not clique
                x, y = result[1], result[2]
                assert x | y == comp and not (x & y)
                assert all(g.neighbors(v) & comp == y for v in x)



class TestOverfullMarked:
    def test_lowest_marked_vertex_above_4_free_neighbours(self):
        # marked 10 and 20 each see the free 1..5, marked 30 sees 1..4
        g = from_edges([(m, i) for m in (10, 20) for i in range(1, 6)]
                       + [(30, i) for i in range(1, 5)], marked=[10, 20, 30])
        adj, index, ids = g.base.adj, g.base.index, g.base.ids
        assert ids[overfull_marked(adj, g.free_mask, g.marked_mask)] == 10
        without_10 = g.marked_mask & ~(1 << index[10])
        assert ids[overfull_marked(adj, g.free_mask, without_10)] == 20
        without_5 = g.free_mask & ~(1 << index[5])
        assert overfull_marked(adj, without_5, g.marked_mask) is None
        assert overfull_marked(adj, g.free_mask, 0) is None


class TestIsClique:
    def test_pairwise_adjacent(self):
        g = from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], marked=[3])

        def is_clique(vs):
            return g.is_clique_mask(g.base.mask(vs))

        assert is_clique([0, 1, 2]) and is_clique([2, 3])
        assert not is_clique([0, 1, 2, 3])
        assert is_clique([]) and is_clique([3])

    def test_vertex_outside_induced_subgraph_rejected(self):
        # 2 keeps its index in the shared relabelling, but it is not a
        # vertex of the subgraph
        with pytest.raises(GraphError, match="unknown vertex 2"):
            complete(3).induced({0, 1}, set()).neighbors(2)

def two_colouring_classify(g, comp):
    """Reference classifier: one BFS from min(comp) over the free vertices
    checks that comp is a free component, counts free degrees and 2-colours
    it; a connected bipartite graph has a unique bipartition."""
    b = frozenset(comp)
    if not b or not b <= g.free:
        raise GraphError(f"{sorted(b)} is not a free component")
    free_deg = {}
    color = {min(b): 0}
    frontier = [min(b)]
    bipartite = True
    while frontier:
        v = frontier.pop()
        nbrs = g.neighbors(v) & g.free
        free_deg[v] = len(nbrs)
        for w in nbrs:
            if w not in color:
                color[w] = 1 - color[v]
                frontier.append(w)
            elif color[w] == color[v]:
                bipartite = False
    if color.keys() != b:
        raise GraphError(f"{sorted(b)} is not a free component")
    if all(d == len(b) - 1 for d in free_deg.values()):
        return ("clique", len(b))
    if not bipartite:
        return ("other",)
    x = frozenset(v for v in b if color[v] == 0)
    y = b - x
    if all(free_deg[v] == len(y if v in x else x) for v in b):
        if (len(y), min(y)) < (len(x), min(x)):
            x, y = y, x
        return ("complete_bipartite", x, y)
    return ("other",)


def all_labeled_graphs(max_n):
    """Every labeled plain graph on 1..max_n vertices, connected or not."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield plain_graph(range(n), [p for i, p in enumerate(pairs) if mask >> i & 1])


def classify_outcome(classify, g, verts):
    try:
        return classify(g, verts)
    except GraphError as e:
        return ("GraphError", str(e))


TWO_COLOURING_GRAPHS = pytest.mark.parametrize("graphs", [
    lambda: all_labeled_graphs(5),
    seeded_marked_graphs,
    lambda: (gen_random(n, 0.05 + n % 4 * 0.05, n) for n in range(20, 41)),
], ids=["labeled_up_to_5", "seeded_marked", "random_20_to_40"])


class TestClassifyMatchesTwoColouring:
    """classify_component gives the reference's result, or raises its
    GraphError, on every free component, each component without its
    smallest vertex, the union of all components and the marked set."""

    @TWO_COLOURING_GRAPHS
    def test_same_result(self, graphs):
        for g in graphs():
            comps = g.free_components()
            sets = [*comps, *(c - {min(c)} for c in comps),
                    frozenset().union(*comps), g.marked]
            for verts in sets:
                assert (classify_outcome(MarkedGraph.classify_component, g, verts)
                        == classify_outcome(two_colouring_classify, g, verts)), (g, verts)


class TestMaskRulesMatchTwoColouring:
    """``non_cliques`` and then ``bipartite_sides`` classify every free
    component as the reference does, on the graphs of the test above."""

    @TWO_COLOURING_GRAPHS
    def test_same_result(self, graphs):
        for g in graphs():
            comps = g.component_masks()
            others = non_cliques(comps, g.degrees())
            for c in comps:
                sides = g.bipartite_sides(c) if c in others else None
                got = (("clique", c.bit_count()) if c not in others
                       else ("other",) if sides is None
                       else ("complete_bipartite", *map(g.base.decode, sides)))
                assert got == two_colouring_classify(g, g.base.decode(c)), (g, c)


class NaiveGraph:
    """Set-based reference model of a marked graph: adjacency sets keyed by
    identifier, marked-marked edges dropped, nothing relabelled."""

    def __init__(self, free, marked, edges):
        self.free, self.marked = frozenset(free), frozenset(marked)
        self.adj = {v: set() for v in self.free | self.marked}
        for a, b in edges:
            if not (a in self.marked and b in self.marked):
                self.adj[a].add(b)
                self.adj[b].add(a)

    def neighbors(self, v):
        return frozenset(self.adj[v])

    def edges(self):
        return sorted((a, b) for a in self.adj for b in self.adj[a] if a < b)

    def f_degrees(self):
        return {v: len(ns & self.free) for v, ns in self.adj.items()}

    def components(self):
        comps, seen = [], set()
        for start in sorted(self.free):
            if start not in seen:
                comp, frontier = {start}, [start]
                while frontier:
                    new = (self.adj[frontier.pop()] & self.free) - comp
                    comp |= new
                    frontier += new
                seen |= comp
                comps.append(frozenset(comp))
        return comps

    def induced(self, s, t):
        kept = s | t
        return NaiveGraph(s, t, [(a, b) for a, b in self.edges()
                                 if a in kept and b in kept])


@st.composite
def sparse_id_graph(draw):
    """(free, marked, edges) on up to 9 distinct identifiers drawn from a
    wide range: negative, sparse and beyond 64 bits."""
    ids = draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=9,
                        unique=True))
    pairs = list(combinations(ids, 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
    marked = draw(st.sets(st.sampled_from(ids), max_size=len(ids) // 2))
    return set(ids) - marked, marked, edges


class TestRelabelling:
    """Every query decoded from the masks equals a naive recomputation on
    identifier sets, whatever the identifiers."""

    @given(sparse_id_graph(), st.data())
    def test_matches_naive_sets(self, spec, data):
        free, marked, edges = spec
        g = MarkedGraph(free, marked, edges)
        ref = NaiveGraph(free, marked, edges)
        assert (g.free, g.marked, g.vertices) == (ref.free, ref.marked, frozenset(ref.adj))
        assert list(g.edges()) == ref.edges() and g.edge_count() == len(ref.edges())
        assert f_degrees(g) == ref.f_degrees()
        for v, ns in ref.adj.items():
            assert g.neighbors(v) == ns
        comps = g.free_components()
        assert comps == ref.components()
        for comp in comps:
            assert g.classify_component(comp) == two_colouring_classify(ref, comp)

        rebuilt = MarkedGraph(free, marked, edges)
        assert g == rebuilt and hash(g) == hash(rebuilt)
        kept = [e for e in edges if not (e[0] in marked and e[1] in marked)]
        if kept:
            assert g != MarkedGraph(free, marked, kept[1:])

        # two induced subgraphs in a row, each of which may mark free
        # vertices or free marked ones
        for _ in range(2):
            verts = sorted(ref.adj)
            if not verts:
                break
            s = data.draw(st.sets(st.sampled_from(verts)))
            rest = [v for v in verts if v not in s]
            t = data.draw(st.sets(st.sampled_from(rest))) if rest else set()
            g, ref = g.induced(s, t), ref.induced(frozenset(s), frozenset(t))
            assert (g.free, g.marked, list(g.edges())) == (ref.free, ref.marked, ref.edges())
            assert f_degrees(g) == ref.f_degrees()
            assert g.free_components() == ref.components()
            same = MarkedGraph(ref.free, ref.marked, ref.edges())
            assert g == same and hash(g) == hash(same)

    @given(sparse_id_graph())
    def test_closed_is_adjacency_plus_self(self, spec):
        base = MarkedGraph(*spec).base
        assert len(base.closed) == len(base.adj)
        for i, a in enumerate(base.adj):
            assert base.closed[i] == a | 1 << i

    def test_subgraphs_share_closed_unless_a_vertex_is_freed(self):
        # path 0-1-2-3 with 3 marked
        g = from_edges([(0, 1), (1, 2), (2, 3)], marked=[3])
        child = g.child(g.free_mask & ~1, g.marked_mask)
        marking = g.induced({1}, {0, 2, 3})
        assert child.base.closed is g.base.closed
        assert marking.base.closed is g.base.closed
        # freeing 3 and deleting 0 relabels 1, 2, 3 as indices 0, 1, 2
        freeing = g.induced({1, 2, 3}, ())
        assert freeing.base is not g.base
        assert freeing.base.closed == (0b011, 0b111, 0b110)


class TestSelect:
    SEQ = tuple(f"v{i}" for i in range(2100))

    @given(st.integers(0, 2000), st.integers(0, 2 ** 64 - 1))
    def test_matches_indexing_at_any_offset(self, low, above):
        # masks whose lowest set bit runs from 0 to 2,000, and the empty one
        for m in (0, (above << 1 | 1) << low):
            for seq in (self.SEQ, list(self.SEQ)):
                assert list(select(seq, m)) == [seq[i] for i in bits(m)]
