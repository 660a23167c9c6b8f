"""Clique-union endgame via constraint satisfaction.

When the free subgraph is a disjoint union of cliques of size at most 4 and
every marked vertex has at most 4 free neighbors, a solution must pick
exactly one vertex per clique.  This becomes a CSP with one variable per
clique and, per marked vertex, one "at least one of these values holds"
constraint.  It runs on the graph's masks: a domain is a clique's vertex
mask, a value is a vertex bit, a constraint is a marked vertex's free
neighbourhood, and a solution is the witness mask itself.

Domains of size 3 and 4 are cut into pairs of their lowest bits.  The
choices of a part per variable are walked depth first on the mask of values
still alive, and a prefix that leaves a constraint none is cut.  Each leaf
is solved on the unrestricted constraints by backtracking with unit
propagation, up to the first satisfiable one.  ``CspInstance`` and
``split_to_binary`` state the same split on ``(variable, value)`` literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import MarkedGraph, bits, non_cliques, overfull_marked, select
from .solution import INFEASIBLE, Solution


class CspError(ValueError):
    """Precondition violation in the CSP encoding."""


@dataclass(frozen=True)
class CspInstance:
    """Finite-domain variables with disjunctive literal constraints.

    ``domains[i]`` is the ordered tuple of values variable i may take; at
    least one ``(variable, value)`` literal of each constraint must hold, so
    an empty constraint is unsatisfiable.  A literal names a variable in
    ``range(len(domains))`` and is false if its value lies outside that
    variable's domain."""

    domains: tuple[tuple[int, ...], ...]
    constraints: tuple[frozenset, ...]

    def __post_init__(self):
        for i, dom in enumerate(self.domains):
            if not dom:
                raise CspError(f"variable {i} has an empty domain")
        variables = set(range(len(self.domains)))
        for c in self.constraints:
            scope = {var for var, _ in c}
            if len(scope) > 4:
                raise CspError(f"constraint scope {sorted(scope)} exceeds 4 variables")
            if not scope <= variables:
                raise CspError(f"constraint scope {sorted(scope)} names a variable "
                               f"outside 0..{len(self.domains) - 1}")


def encode(g: MarkedGraph) -> tuple[list[int], list[int]]:
    """``(domains, constraints)`` of a clique-union marked graph, as masks.

    The domains are the free cliques' vertex masks, ordered by smallest
    member; the values of a domain are its vertex bits, in ascending
    identifier order.  The constraint of a marked vertex u, in ascending
    order of u, is ``adj[u] & free``: one of those vertices must be chosen.
    """
    ids, adj, free, marked = g.base.ids, g.base.adj, g.free_mask, g.marked_mask
    comps, deg = g.component_masks(), g.degrees()
    others = non_cliques(comps, deg)
    for comp in comps:
        if comp in others:
            raise CspError(f"free component {list(select(ids, comp))} is not a clique")
        if comp.bit_count() > 4:
            raise CspError(f"free clique {list(select(ids, comp))} larger than 4")
    bad = overfull_marked(adj, free, marked)
    if bad is not None:
        raise CspError(f"marked vertex {ids[bad]} has more than 4 free neighbors")
    return comps, [adj[u] & free for u in bits(marked)]


# ---------------------------------------------------------------------------
# Domain splitting


def _split(domains: list, constraints: list):
    """Leaf domains of the domain split, depth first in ``itertools.product``
    order over ascending variables.  A domain d of more than two bits is cut
    into successive pairs of its lowest bits.  A prefix is the mask of values
    still alive; choosing part p of d clears ``d ^ p``.  A prefix that leaves
    a constraint no alive value is dropped.  The empty prefix is checked on
    every constraint, and a choice of p only on those that meet d but not p:
    the others kept a value at the parent prefix and lose none."""
    levels = []  # per split variable, per part: values kept, constraints at risk
    for d in domains:
        if d.bit_count() > 2:
            b = bits(d)
            pairs = [sum(1 << i for i in b[k:k + 2]) for k in range(0, len(b), 2)]
            levels.append([(~(d ^ p), [c for c in constraints if c & d and not c & p])
                           for p in pairs])
    stack = [(-1, 0)] if all(constraints) else []  # (alive, depth)
    while stack:
        alive, depth = stack.pop()
        if depth == len(levels):
            yield [d & alive for d in domains]
            continue
        for keep, risky in reversed(levels[depth]):  # the first part on top
            sub = alive & keep
            if all(c & sub for c in risky):
                stack.append((sub, depth + 1))


def split_to_binary(inst: CspInstance) -> list[CspInstance]:
    """Every leaf of the split, none cut: instances with all domains of size
    <= 2 whose solution sets unite to the input's.  A size-4 domain gives two
    binary halves, a size-3 one a binary half and a singleton.

    The literals get bits, a variable's domain values in order first, and
    ``_split`` runs on the masks with no constraints, so it cuts nothing.
    A leaf drops the constraints that a split variable's one-bit part hits
    and strips the split variables' values outside it from the rest.  A
    split variable's out-of-domain literals are false in every leaf and get
    no bit; the other variables' are kept."""
    lits = [(i, x) for i, dom in enumerate(inst.domains) for x in dom]
    lits += sorted({(i, x) for c in inst.constraints for i, x in c
                    if len(inst.domains[i]) <= 2} - set(lits))
    bit = {lit: 1 << k for k, lit in enumerate(lits)}
    domains = [sum(bit[i, x] for x in dom) for i, dom in enumerate(inst.domains)]
    constraints = [sum(bit.get(lit, 0) for lit in c) for c in inst.constraints]
    decoded, leaves = {}, []  # per mask, its values and its literals
    for doms in _split(domains, []):
        fixed = sum(p for d, p in zip(domains, doms) if d != p and not p & (p - 1))
        dead = sum(domains) ^ sum(doms)  # the split variables' values outside the leaf
        cons = [c & ~dead for c in constraints if not c & fixed]
        for m in (*doms, *cons):  # the leaves share few masks
            if m not in decoded:
                decoded[m] = (tuple(x for _, x in select(lits, m)),
                              frozenset(select(lits, m)))
        leaves.append(CspInstance(tuple(decoded[d][0] for d in doms),
                                  tuple(decoded[c][1] for c in cons)))
    return leaves


# ---------------------------------------------------------------------------
# Binary-domain backtracking


def solve_binary(domains: list, constraints: list) -> Optional[int]:
    """One value bit of every domain, as a mask that meets every constraint,
    or None when there is none; the domains are disjoint masks of at most 2
    bits.

    Chronological backtracking over variables in ascending order, values in
    domain (ascending bit) order, with unit propagation on constraints left
    one open value.  A state is the mask of values still alive, the mask of
    values chosen (every one-bit domain's from the start) and the first
    variable that may be open; the search is one loop over a stack of
    states.  Backtracking with any sound propagation returns the first
    solution in product order, so the witness is the one an enumeration of
    ``itertools.product`` over the domains' bits would find first.
    """
    if any(d.bit_count() > 2 for d in domains):
        raise CspError("solve_binary requires domains of size <= 2")
    alive, chosen = sum(domains), sum(d for d in domains if d.bit_count() == 1)
    other = [0] * alive.bit_length()  # per value bit: its variable's other value
    for d in domains:
        for v in (d & -d, d & (d - 1)):  # its low and its high bit, if any
            if v:
                other[v.bit_length() - 1] = d ^ v
    stack = [(alive, chosen, 0)]
    while stack:
        alive, chosen, var = stack.pop()
        changed = True
        while changed and chosen is not None:  # unit propagation to a fixpoint
            changed = False
            for c in constraints:
                if not c & chosen:
                    unit = c & alive
                    if not unit:  # wiped out
                        chosen = None
                        break
                    if not unit & (unit - 1):
                        alive ^= other[unit.bit_length() - 1]
                        chosen |= unit
                        changed = True
        if chosen is None:
            continue
        while var < len(domains) and domains[var] & chosen:
            var += 1
        if var == len(domains):
            return chosen
        low = domains[var] & -domains[var]
        high = domains[var] ^ low
        stack.append((alive ^ low, chosen | high, var + 1))
        stack.append((alive ^ high, chosen | low, var + 1))
    return None


def solve_clique_union(g: MarkedGraph) -> Solution:
    """Exact solution on a clique-union marked graph.

    Every free clique contributes exactly one solution vertex, so any
    feasible solution has size equal to the number of cliques; the CSP
    decides whether the marked vertices can all be dominated.  Each leaf of
    the cut split is solved on the unrestricted constraints, in the steps
    its restricted ones take: its alive and chosen values lie inside it, and
    a constraint that a one-bit part hits is met from the start.  The first
    satisfiable leaf is the first satisfiable member of ``split_to_binary``;
    its witness mask is decoded once."""
    domains, constraints = encode(g)
    for leaf in _split(domains, constraints):
        witness = solve_binary(leaf, constraints)
        if witness is not None:
            return Solution.found(len(domains), g.base.decode(witness))
    return INFEASIBLE
