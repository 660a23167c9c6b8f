"""Shared graph constructions for the test suite."""

from itertools import combinations

from midsolve.graph import MarkedGraph, plain_graph
from midsolve.instances import gen_random, mark_random


def complete(n, start=0):
    vs = range(start, start + n)
    return plain_graph(vs, combinations(vs, 2))


def cycle(n, start=0):
    vs = list(range(start, start + n))
    return plain_graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def path(n, start=0):
    vs = list(range(start, start + n))
    return plain_graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def complete_bipartite(a, b):
    xs = list(range(a))
    ys = list(range(a, a + b))
    return plain_graph(xs + ys, [(x, y) for x in xs for y in ys])


def star(leaves):
    return plain_graph(range(leaves + 1), [(0, i) for i in range(1, leaves + 1)])


def from_edges(edges, marked=(), extra=()):
    verts = {v for e in edges for v in e} | set(marked) | set(extra)
    return MarkedGraph(verts - set(marked), marked, edges)


def f_degrees(g):
    """Number of free neighbors of every vertex of g, keyed by identifier,
    read from the mask view that the solver uses."""
    deg = g.degrees()
    return {v: deg[g.base.index[v]] for v in g.vertices}


def connected_labeled_graphs(max_n):
    """All connected labeled plain graphs on up to max_n vertices."""
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if mask >> i & 1]
            g = plain_graph(range(n), edges)
            if len(g.component_masks()) == 1:
                yield g


def seeded_marked_graphs():
    """The 500 seeded marked graphs of acceptance criterion 1."""
    for seed in range(500):
        n = 4 + seed % 5
        yield mark_random(gen_random(n, 0.1 + (seed % 7) * 0.07, seed),
                          0.25, seed + 10_000)
