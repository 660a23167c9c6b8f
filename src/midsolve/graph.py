"""Immutable marked-graph model.

A marked graph partitions its vertices into *free* vertices (eligible for
the solution set) and *marked* vertices (excluded from the solution but
still requiring domination).  Edges between two marked vertices carry no
information for independent domination and are dropped at construction.

Representation.  The constructor builds a ``Relabelling``: the vertex
identifiers in ascending order, so that index i stands for the i-th
smallest identifier, and one adjacency bitmask per index, a Python ``int``
whose bit j is set when i and j are adjacent (marked-marked edges left
out).  A graph is that shared relabelling plus two ``int`` masks,
``free_mask`` and ``marked_mask``.  An induced subgraph that deletes or
marks vertices shares its parent's relabelling: building it is two mask
ANDs.  Its edges are the relabelling's edges inside its vertex set, except
those between two of its marked vertices.  A vertex that is free in such a
subgraph is free in the graph the relabelling was built for, so its edges
to marked vertices were never dropped; an ``induced`` call that frees a
marked vertex builds a new relabelling instead.

The solver, the CSP endgame, the measure and ``mark_random`` work on the
masks: ``degrees``, ``component_masks``, ``non_cliques``,
``bipartite_sides``, ``overfull_marked``, ``is_clique_mask``, ``child``,
``nbr_mask``, ``base.adj`` and ``base.closed``, read through ``bits`` and
``select``.  Identifiers appear only at the public methods, which decode
from the masks, in the witnesses that the solver's root and the CSP
endgame each decode once, and in error messages.  The lowest set bit is
the smallest identifier, so scanning a mask upward visits vertices in
ascending identifier order, the order every tie-break of the solver uses.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Optional


class GraphError(ValueError):
    """Malformed graph construction or query."""


_DIGIT = bytes.maketrans(b"01", b"\0\1")


def select(seq, mask: int) -> Iterator:
    """The entries of ``seq`` at the set bits of ``mask``, in index order.

    ``itertools.compress`` walks the binary digits of ``mask``, lowest
    first, with no Python loop per vertex.  The mask is shifted down to its
    lowest set bit and ``seq`` sliced to its span first, so a call costs
    what the mask spans, not its top bit.
    """
    low = (mask ^ (mask - 1)).bit_length() - 1  # the lowest set bit; 0 for 0
    return compress(seq[low:mask.bit_length()],
                    bin(mask >> low)[:1:-1].encode().translate(_DIGIT))


def bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        i = mask.bit_length() - 1
        out.append(i)
        mask ^= 1 << i
    out.reverse()
    return out


def non_cliques(comps: list, deg: list) -> list:
    """The free components (masks) that are not cliques, given the
    F-degree of every index.  A free vertex has all its free neighbors in
    its own component, so a component C is a clique exactly when each of
    its vertices has F-degree |C| - 1."""
    return [c for c in comps if min(select(deg, c)) != c.bit_count() - 1]


def overfull_marked(adj, free: int, marked: int) -> Optional[int]:
    """The lowest index of ``marked`` with more than 4 neighbours in
    ``free``, or None: the solver's input contract, which every branching
    rule keeps, is that no marked vertex has F-degree above 4."""
    return next((u for u in bits(marked) if (adj[u] & free).bit_count() > 4), None)


class Relabelling:
    """Dense order-preserving relabelling of a vertex set, with adjacency.

    ``ids[i]`` is the i-th smallest identifier, ``index`` maps it back to
    i, ``adj[i]`` is the adjacency bitmask of index i and ``closed[i]``
    its closed neighborhood, ``adj[i] | 1 << i``.  Immutable and shared by
    a graph and every induced subgraph built from it.
    """

    __slots__ = ("ids", "index", "adj", "closed")

    def __init__(self, ids: tuple, index: dict, adj: tuple):
        self.ids = ids
        self.index = index
        self.adj = adj
        self.closed = tuple([a | 1 << i for i, a in enumerate(adj)])

    def mask(self, vs: Iterable[int]) -> int:
        """Bitmask of the given identifiers, all of which must be known."""
        index = self.index
        m = 0
        for v in vs:
            m |= 1 << index[v]
        return m

    def decode(self, mask: int) -> frozenset:
        """Identifiers of the set bits of ``mask``."""
        return frozenset(select(self.ids, mask))


class MarkedGraph:
    """Graph with vertex set ``free | marked`` and symmetric edge relation.

    Instances are immutable; all derived graphs (induced subgraphs) are new
    objects, so values can be shared freely between threads.
    """

    __slots__ = ("base", "free_mask", "marked_mask")

    def __init__(self, free: Iterable[int], marked: Iterable[int],
                 edges: Iterable[tuple[int, int]]):
        free_set = frozenset(free)
        marked_set = frozenset(marked)
        overlap = free_set & marked_set
        if overlap:
            raise GraphError(f"vertices both free and marked: {sorted(overlap)}")
        ids = tuple(sorted(free_set | marked_set))
        index = {v: i for i, v in enumerate(ids)}
        adj = [0] * len(ids)
        for a, b in edges:
            if a == b:
                raise GraphError(f"self-loop at vertex {a}")
            i, j = index.get(a), index.get(b)
            if i is None or j is None:
                raise GraphError(f"edge ({a},{b}) has an unknown endpoint")
            if a in marked_set and b in marked_set:
                continue  # marked-marked edges are irrelevant; dropped
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.base = base = Relabelling(ids, index, tuple(adj))
        self.free_mask = base.mask(free_set)
        self.marked_mask = base.mask(marked_set)

    def child(self, free_mask: int, marked_mask: int) -> "MarkedGraph":
        """The induced subgraph with these masks on the shared relabelling,
        built without checks: ``free_mask`` must lie within this graph's
        free vertices and ``marked_mask`` within its vertices."""
        g = object.__new__(MarkedGraph)
        g.base = self.base
        g.free_mask = free_mask
        g.marked_mask = marked_mask
        return g

    # -- mask view --------------------------------------------------------

    def nbr_mask(self, i: int) -> int:
        """Neighbors of index i in this graph: a marked vertex has only
        free ones."""
        free = self.free_mask
        return self.base.adj[i] & (free if self.marked_mask >> i & 1
                                   else free | self.marked_mask)

    def degrees(self) -> list[int]:
        """F-degree of every index of the relabelling; only the entries of
        this graph's vertices are meaningful."""
        free = self.free_mask
        return [(a & free).bit_count() for a in self.base.adj]

    def component_masks(self) -> list[int]:
        """Free components as masks, ordered by smallest member: a flood
        fill from the lowest free vertex not yet reached, repeated."""
        adj = self.base.adj
        rest = self.free_mask  # free vertices not reached yet
        comps = []
        while rest:
            comp = frontier = rest & -rest
            rest ^= comp
            while frontier:
                i = frontier.bit_length() - 1
                frontier ^= 1 << i
                new = adj[i] & rest
                if new:
                    rest ^= new
                    frontier |= new
                    comp |= new
            comps.append(comp)
        return comps

    def bipartite_sides(self, comp: int):
        """The sides ``(X, Y)`` of a free component that is not a clique,
        as masks, when it is complete bipartite, X the smaller side (ties
        broken by smallest vertex); else None.

        With v0 = min(C), Y = N_F(v0) and X = C - Y, C is complete
        bipartite exactly when every vertex of X has free neighborhood Y and
        every vertex of Y has free neighborhood X.
        """
        adj, free = self.base.adj, self.free_mask
        y = adj[(comp & -comp).bit_length() - 1] & free
        x = comp & ~y
        if not (all(a & free == y for a in select(adj, x))
                and all(a & free == x for a in select(adj, y))):
            return None
        if (y.bit_count(), y & -y) < (x.bit_count(), x & -x):
            x, y = y, x
        return x, y

    def is_clique_mask(self, m: int) -> bool:
        """True iff the vertices of mask m are pairwise adjacent."""
        return all(self.nbr_mask(i) & m == m ^ 1 << i for i in bits(m))

    # -- basic queries ----------------------------------------------------

    @property
    def free(self) -> frozenset:
        return self.base.decode(self.free_mask)

    @property
    def marked(self) -> frozenset:
        return self.base.decode(self.marked_mask)

    @property
    def vertices(self) -> frozenset:
        return self.base.decode(self.free_mask | self.marked_mask)

    def __len__(self) -> int:
        return (self.free_mask | self.marked_mask).bit_count()

    def neighbors(self, v: int) -> frozenset:
        i = self.base.index.get(v)
        if i is None or not (self.free_mask | self.marked_mask) >> i & 1:
            raise GraphError(f"unknown vertex {v}")
        return self.base.decode(self.nbr_mask(i))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as sorted pairs, in lexicographic order."""
        ids = self.base.ids
        for i in bits(self.free_mask | self.marked_mask):
            for j in bits(self.nbr_mask(i) >> i + 1 << i + 1):
                yield (ids[i], ids[j])

    def edge_count(self) -> int:
        return sum(self.nbr_mask(i).bit_count()
                   for i in bits(self.free_mask | self.marked_mask)) // 2

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
        free_mask = self.base.mask(s)
        if free_mask & self.marked_mask:
            # a freed marked vertex keeps no edge to a marked one, which only
            # a new relabelling can record
            return MarkedGraph(s, t, [(a, b) for a, b in self.edges()
                                      if a in kept and b in kept])
        return self.child(free_mask, self.base.mask(t))

    def free_components(self) -> list[frozenset]:
        """Connected components of the subgraph induced by the free vertices.

        Returned as a list of vertex sets ordered by smallest member.
        """
        return [self.base.decode(c) for c in self.component_masks()]

    def classify_component(self, comp: Iterable[int]):
        """Classify a free component as a clique, a complete bipartite graph
        or neither.

        Returns ``("clique", size)``, ``("complete_bipartite", X, Y)`` with X
        the smaller side (ties broken by smallest vertex), or ``("other",)``.
        Sizes 1 and 2 always classify as cliques.  Raises ``GraphError``
        unless ``comp`` is exactly one free component.  ``non_cliques`` and
        then ``bipartite_sides`` decide, on the component's mask.
        """
        b = frozenset(comp)
        c = self.base.mask(b) if b <= self.free else 0
        if c not in self.component_masks():
            raise GraphError(f"{sorted(b)} is not a free component")
        if not non_cliques([c], self.degrees()):
            return ("clique", len(b))
        sides = self.bipartite_sides(c)
        if sides is None:
            return ("other",)
        return ("complete_bipartite", *map(self.base.decode, sides))

    # -- equality / repr --------------------------------------------------

    def _key(self) -> tuple:
        return self.free, self.marked, tuple(self.edges())

    def __eq__(self, other) -> bool:
        if not isinstance(other, MarkedGraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"MarkedGraph(free={sorted(self.free)}, marked={sorted(self.marked)}, "
                f"edges={list(self.edges())})")


def plain_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> MarkedGraph:
    """Marked graph with every vertex free; entry point for ordinary graphs."""
    return MarkedGraph(vertices, (), edges)
