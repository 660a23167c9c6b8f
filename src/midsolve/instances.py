"""Instance generation and file I/O for marked graphs.

File format (DIMACS edge format plus a mark line):

    c <comment, anywhere>
    p mids <n> <m>        -- n vertices (identifiers 1..n), m edge lines
    e <i> <j>             -- undirected edge, 1-indexed
    m <i>                 -- vertex i is marked

The writer emits a canonical form: sorted edge lines, then sorted mark
lines.  Random generation uses an explicitly specified PRNG (splitmix64,
see _SplitMix64) so corpora are reproducible across implementations.
"""

from __future__ import annotations

from .graph import GraphError, MarkedGraph, bits, overfull_marked, plain_graph


class InstanceFormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Lower-bound family


def gen_lower_bound(l: int) -> MarkedGraph:
    """The layered 2l-vertex family that forces repeated degree-2 branching.

    Vertices are numbered u_i = 2i-1, v_i = 2i (so u_1 < v_1 < u_2 < ...).
    Edges: {u_1,v_1} and, for 2 <= i <= l, {u_i,v_i}, {u_i,u_{i-1}},
    {v_i,v_{i-1}}, {u_i,v_{i-1}}; 4l-3 edges in total, all vertices free.
    """
    if l < 1:
        raise ValueError(f"layer parameter must be >= 1, got {l}")

    def u(i):
        return 2 * i - 1

    def v(i):
        return 2 * i

    edges = [(u(1), v(1))]
    for i in range(2, l + 1):
        edges += [(u(i), v(i)), (u(i), u(i - 1)), (v(i), v(i - 1)), (u(i), v(i - 1))]
    return plain_graph(range(1, 2 * l + 1), edges)


# ---------------------------------------------------------------------------
# Random graphs


class _SplitMix64:
    """splitmix64: state += 0x9E3779B97F4A7C15; z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB; return z ^ (z >> 31).

    Uniform doubles are next()/2**64; bounded ints are (next()*n) >> 64.
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def random(self) -> float:
        return self.next_u64() / 2.0 ** 64

    def below(self, n: int) -> int:
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


def gen_random(n: int, p: float, seed: int) -> MarkedGraph:
    """Erdos-Renyi-style plain graph on vertices 1..n, deterministic in seed.

    Each pair (i, j), i < j in lexicographic order, gets an edge when the
    next PRNG double is below p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability {p} outside [0, 1]")
    rng = _SplitMix64(seed)
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < p]
    return plain_graph(range(1, n + 1), edges)


#: Draws ``mark_random`` makes before it falls back to unmarking.
MARK_ATTEMPTS = 100


def mark_random(g: MarkedGraph, fraction: float, seed: int) -> MarkedGraph:
    """Move a fraction of the vertices to marked, keeping the solver's input
    contract (marked F-degree <= 4).

    Marked-marked edges are dropped by construction.  A draw leaving some
    marked vertex with more than 4 free neighbors is rejected and redrawn;
    after ``MARK_ATTEMPTS`` failed draws, offending vertices are unmarked
    (smallest identifier first) until the contract holds, which always terminates.
    Both tests are ``overfull_marked`` on the vertices' neighbor masks.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"mark fraction {fraction} outside [0, 1]")
    vertices = g.free_mask | g.marked_mask
    verts = bits(vertices)
    count = round(fraction * len(verts))
    nbrs = [g.nbr_mask(i) for i in range(len(g.base.ids))]
    rng = _SplitMix64(seed)
    marked = 0
    for _ in range(MARK_ATTEMPTS):
        pool = list(verts)
        rng.shuffle(pool)
        marked = sum(1 << i for i in pool[:count])
        if _mark_ok(nbrs, marked):
            break
    else:
        while (bad := overfull_marked(nbrs, ~marked, marked)) is not None:
            marked ^= 1 << bad
    return MarkedGraph(g.base.decode(vertices & ~marked), g.base.decode(marked), g.edges())


def _mark_ok(nbrs: list, marked: int) -> bool:
    return overfull_marked(nbrs, ~marked, marked) is None


# ---------------------------------------------------------------------------
# File I/O


def read_graph(text: str) -> MarkedGraph:
    """Parse the `p mids` format; diagnostics carry the offending line number."""
    n = None
    expected_edges = 0
    edges: list = []
    seen_edges: set = set()
    marks: set = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InstanceFormatError(f"line {lineno}: duplicate header")
            if len(fields) != 4 or fields[1] != "mids":
                raise InstanceFormatError(f"line {lineno}: malformed header {line!r}")
            try:
                n, expected_edges = int(fields[2]), int(fields[3])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: malformed header {line!r}") from None
            if n < 0 or expected_edges < 0:
                raise InstanceFormatError(f"line {lineno}: negative counts in header")
        elif fields[0] == "e":
            if n is None:
                raise InstanceFormatError(f"line {lineno}: edge before header")
            if len(fields) != 3:
                raise InstanceFormatError(f"line {lineno}: malformed edge line {line!r}")
            try:
                a, b = int(fields[1]), int(fields[2])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: malformed edge line {line!r}") from None
            for x in (a, b):
                if not 1 <= x <= n:
                    raise InstanceFormatError(f"line {lineno}: vertex {x} out of range 1..{n}")
            if a == b:
                raise InstanceFormatError(f"line {lineno}: self-loop at {a}")
            key = (min(a, b), max(a, b))
            if key in seen_edges:
                raise InstanceFormatError(f"line {lineno}: duplicate edge {key}")
            seen_edges.add(key)
            edges.append(key)
        elif fields[0] == "m":
            if n is None:
                raise InstanceFormatError(f"line {lineno}: mark before header")
            if len(fields) != 2:
                raise InstanceFormatError(f"line {lineno}: malformed mark line {line!r}")
            try:
                v = int(fields[1])
            except ValueError:
                raise InstanceFormatError(f"line {lineno}: malformed mark line {line!r}") from None
            if not 1 <= v <= n:
                raise InstanceFormatError(f"line {lineno}: vertex {v} out of range 1..{n}")
            if v in marks:
                raise InstanceFormatError(f"line {lineno}: duplicate mark for {v}")
            marks.add(v)
        else:
            raise InstanceFormatError(f"line {lineno}: unknown record {fields[0]!r}")
    if n is None:
        raise InstanceFormatError("missing 'p mids' header")
    if len(edges) != expected_edges:
        raise InstanceFormatError(
            f"header announces {expected_edges} edges, found {len(edges)}")
    return MarkedGraph(set(range(1, n + 1)) - marks, marks, edges)


def write_graph(g: MarkedGraph) -> str:
    """Canonical text form: header, sorted edge lines, sorted mark lines.

    Requires vertex identifiers to be exactly 1..n (the generators and the
    reader guarantee this).
    """
    verts = sorted(g.vertices)
    n = len(verts)
    if verts != list(range(1, n + 1)):
        raise InstanceFormatError("writer requires vertex identifiers 1..n")
    edge_list = sorted(g.edges())
    lines = [f"p mids {n} {len(edge_list)}"]
    lines += [f"e {a} {b}" for a, b in edge_list]
    lines += [f"m {v}" for v in sorted(g.marked)]
    return "\n".join(lines) + "\n"
