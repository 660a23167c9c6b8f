"""Shared graph constructions for the test suite."""

import random
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


def random_clique_union(seed):
    """Seeded clique union of acceptance criterion 2: free cliques of 1-4
    vertices, at most 12 free in all, and up to 6 marked vertices with up
    to 4 free neighbours each, or none."""
    rnd = random.Random(seed)
    vid = 1
    free, edges = set(), []
    while True:
        size = rnd.randint(1, 4)
        if len(free) + size > 12:
            break
        members = list(range(vid, vid + size))
        vid += size
        free |= set(members)
        edges += list(combinations(members, 2))
        if rnd.random() < 0.3:
            break
    marked = set()
    for _ in range(rnd.randint(0, 6)):
        m = vid
        vid += 1
        marked.add(m)
        targets = rnd.sample(sorted(free), rnd.randint(0, min(4, len(free))))
        edges += [(m, t) for t in targets]
    return MarkedGraph(free, marked, edges)
