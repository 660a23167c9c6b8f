"""Immutable marked-graph model.

A marked graph partitions its vertices into *free* vertices (eligible for
the solution set) and *marked* vertices (excluded from the solution but
still requiring domination).  Edges between two marked vertices carry no
information for independent domination and are dropped at construction.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class GraphError(ValueError):
    """Malformed graph construction or query."""


class MarkedGraph:
    """Graph with vertex set ``free | marked`` and symmetric edge relation.

    Instances are immutable; all derived graphs (induced subgraphs) are new
    objects, so values can be shared freely between threads.
    """

    __slots__ = ("free", "marked", "_adj")

    def __init__(self, free: Iterable[int], marked: Iterable[int],
                 edges: Iterable[tuple[int, int]]):
        free_set = frozenset(free)
        marked_set = frozenset(marked)
        overlap = free_set & marked_set
        if overlap:
            raise GraphError(f"vertices both free and marked: {sorted(overlap)}")
        verts = free_set | marked_set
        adj: dict[int, set[int]] = {v: set() for v in verts}
        for a, b in edges:
            if a == b:
                raise GraphError(f"self-loop at vertex {a}")
            if a not in verts or b not in verts:
                raise GraphError(f"edge ({a},{b}) has an unknown endpoint")
            if a in marked_set and b in marked_set:
                continue  # marked-marked edges are irrelevant; dropped
            adj[a].add(b)
            adj[b].add(a)
        self.free = free_set
        self.marked = marked_set
        self._adj = {v: frozenset(ns) for v, ns in adj.items()}

    @classmethod
    def _build(cls, free: frozenset, marked: frozenset,
               adj: dict[int, frozenset]) -> "MarkedGraph":
        """Fast internal constructor from a pre-filtered adjacency map."""
        g = object.__new__(cls)
        g.free = free
        g.marked = marked
        g._adj = adj
        return g

    # -- basic queries ----------------------------------------------------

    @property
    def vertices(self) -> frozenset:
        return self.free | self.marked

    def __len__(self) -> int:
        return len(self._adj)

    def neighbors(self, v: int) -> frozenset:
        try:
            return self._adj[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v}") from None

    def free_neighbors(self, v: int) -> frozenset:
        return self.neighbors(v) & self.free

    def f_degree(self, v: int) -> int:
        """Number of free neighbors of v."""
        return len(self.neighbors(v) & self.free)

    def f_degrees(self) -> dict[int, int]:
        """Number of free neighbors of every vertex, free or marked."""
        free = self.free
        return {v: len(ns & free) for v, ns in self._adj.items()}

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as sorted pairs, in lexicographic order."""
        for a in sorted(self._adj):
            for b in sorted(self._adj[a]):
                if a < b:
                    yield (a, b)

    def edge_count(self) -> int:
        return sum(len(ns) for ns in self._adj.values()) // 2

    # -- constructions ----------------------------------------------------

    def induced(self, new_free: Iterable[int], new_marked: Iterable[int]) -> "MarkedGraph":
        """Induced marked subgraph on (new_free, new_marked).

        Keeps the edges of this graph with both endpoints in the kept vertex
        set; edges between two newly marked vertices are dropped to preserve
        the type invariant.  Vertex identifiers are preserved.
        """
        s = frozenset(new_free)
        t = frozenset(new_marked)
        overlap = s & t
        if overlap:
            raise GraphError(f"free/marked overlap in induced subgraph: {sorted(overlap)}")
        kept = s | t
        missing = kept - self.vertices
        if missing:
            raise GraphError(f"unknown vertices {sorted(missing)} in induced subgraph")
        return MarkedGraph._build(
            s, t, {v: self._adj[v] & (kept if v in s else s) for v in kept})

    def _reach(self, start: int) -> frozenset:
        """Free vertices reachable from the free vertex start through free
        vertices: its free component."""
        comp = {start}
        frontier = [start]
        while frontier:
            for w in self._adj[frontier.pop()] & self.free:
                if w not in comp:
                    comp.add(w)
                    frontier.append(w)
        return frozenset(comp)

    def free_components(self) -> list[frozenset]:
        """Connected components of the subgraph induced by the free vertices.

        Returned as a list of vertex sets ordered by smallest member.
        """
        seen: set[int] = set()
        comps = []
        for start in sorted(self.free):
            if start not in seen:
                comps.append(self._reach(start))
                seen |= comps[-1]
        return comps

    def classify_component(self, comp: Iterable[int]):
        """Classify a free component as a clique, a complete bipartite graph
        or neither.

        Returns ``("clique", size)``, ``("complete_bipartite", X, Y)`` with X
        the smaller side (ties broken by smallest vertex), or ``("other",)``.
        Sizes 1 and 2 always classify as cliques.  Raises ``GraphError``
        unless ``comp`` is exactly one free component.

        The free neighbors of a component's vertices lie in the component,
        so it is a clique when each vertex has ``|C| - 1`` of them.  Else
        take v0 = min(C), Y = N_F(v0) and X = C - Y: C is complete
        bipartite exactly when every vertex of X has free neighborhood Y and
        every vertex of Y has free neighborhood X.
        """
        b = frozenset(comp)
        if not b or not b <= self.free or self._reach(min(b)) != b:
            raise GraphError(f"{sorted(b)} is not a free component")
        nbrs = {v: self._adj[v] & self.free for v in b}
        if all(len(ns) == len(b) - 1 for ns in nbrs.values()):
            return ("clique", len(b))
        y = nbrs[min(b)]
        x = b - y
        if all(ns == (y if v in x else x) for v, ns in nbrs.items()):
            if (len(y), min(y)) < (len(x), min(x)):
                x, y = y, x
            return ("complete_bipartite", x, y)
        return ("other",)

    def is_clique(self, vs: Iterable[int]) -> bool:
        """True iff the given vertices are pairwise adjacent."""
        vl = list(vs)
        return all(vl[j] in self._adj[vl[i]]
                   for i in range(len(vl)) for j in range(i + 1, len(vl)))

    # -- equality / repr --------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return (self.free == other.free and self.marked == other.marked
                and self._adj == other._adj)

    def __hash__(self) -> int:
        return hash((self.free, self.marked,
                     frozenset((v, ns) for v, ns in self._adj.items())))

    def __repr__(self) -> str:
        return (f"MarkedGraph(free={sorted(self.free)}, marked={sorted(self.marked)}, "
                f"edges={list(self.edges())})")


def plain_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> MarkedGraph:
    """Marked graph with every vertex free; entry point for ordinary graphs."""
    return MarkedGraph(vertices, (), edges)
