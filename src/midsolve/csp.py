"""Clique-union endgame via constraint satisfaction.

When the free subgraph is a disjoint union of cliques of size at most 4 and
every marked vertex has at most 4 free neighbors, a solution must pick
exactly one vertex per clique.  This becomes a CSP with one variable per
clique and, per marked vertex, one "at least one of these values holds"
constraint.  It runs on the graph's masks: a domain is a clique's vertex
mask, a value is a vertex bit, a constraint is a marked vertex's free
neighbourhood, and a solution is the witness mask itself.

Domains of size 3 and 4 are cut into pairs of their lowest bits.
``solve_binary`` is the whole endgame: one backtracking search that keeps
a part of each such domain and then chooses a value per variable, with
unit propagation at every state, up to the first solution.
``CspInstance`` and ``split_to_binary`` state the same split on
``(variable, value)`` literals.
"""

from __future__ import annotations

import itertools
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


def _parts(d: int) -> list[int]:
    """The parts of domain d in split order: ``[d]`` up to two bits, else
    successive pairs of its lowest bits, so a size-4 domain gives two
    binary halves and a size-3 one a binary half and a singleton."""
    if d.bit_count() <= 2:
        return [d]
    b = bits(d)
    return [sum(1 << i for i in b[k:k + 2]) for k in range(0, len(b), 2)]


def split_to_binary(inst: CspInstance) -> list[CspInstance]:
    """Every member of the split, none cut: instances with all domains of
    size <= 2 whose solution sets unite to the input's, in
    ``itertools.product`` order over each variable's ``_parts``.

    The literals get bits, a variable's domain values in order first.  A
    member drops the constraints that a split variable's one-bit part hits
    and strips the split variables' values outside it from the rest.  A
    split variable's out-of-domain literals are false in every member and
    get no bit; the other variables' are kept."""
    lits = [(i, x) for i, dom in enumerate(inst.domains) for x in dom]
    lits += sorted({(i, x) for c in inst.constraints for i, x in c
                    if len(inst.domains[i]) <= 2} - set(lits))
    bit = {lit: 1 << k for k, lit in enumerate(lits)}
    domains = [sum(bit[i, x] for x in dom) for i, dom in enumerate(inst.domains)]
    constraints = [sum(bit.get(lit, 0) for lit in c) for c in inst.constraints]
    decoded, leaves = {}, []  # per mask, its values and its literals
    for doms in itertools.product(*map(_parts, domains)):
        fixed = sum(p for d, p in zip(domains, doms) if d != p and not p & (p - 1))
        dead = sum(domains) ^ sum(doms)  # the split variables' values the member drops
        cons = [c & ~dead for c in constraints if not c & fixed]
        for m in (*doms, *cons):  # the members share few masks
            if m not in decoded:
                decoded[m] = (tuple(x for _, x in select(lits, m)),
                              frozenset(select(lits, m)))
        leaves.append(CspInstance(tuple(decoded[d][0] for d in doms),
                                  tuple(decoded[c][1] for c in cons)))
    return leaves


# ---------------------------------------------------------------------------
# The endgame search


def solve_binary(domains: list, constraints: list) -> Optional[int]:
    """One value bit of every domain, as a mask that meets every constraint,
    or None when there is none; the domains are disjoint masks.

    One backtracking search over a stack of states ``(alive, chosen,
    step)``: the values still alive, the values chosen (every one-bit
    domain's from the start, and every one-bit part's) and the next step.
    The first steps keep one of ``_parts(d)`` per domain d of more than two
    bits, in ascending order, the first part first, skipping a part that a
    chosen value lies outside; the others choose one value per variable not
    yet chosen, in ascending order, the low alive value first.  Each popped
    state is propagated to a fixpoint: a constraint with no alive value
    cuts it, and a constraint with one alive value chooses that value and
    clears the rest of its domain.  Propagation is sound, so the witness is
    the first solution in the order of the steps: the first product-order
    solution of the first satisfiable member of ``split_to_binary``.
    """
    keep = [0] * sum(domains).bit_length()  # per value bit: clears its domain's rest
    for d in domains:
        for i in bits(d):
            keep[i] = ~(d ^ 1 << i)
    wide = [(d, _parts(d)) for d in domains if d.bit_count() > 2]
    stack = [(sum(domains), sum(d for d in domains if d.bit_count() == 1), 0)]
    while stack:
        alive, chosen, step = stack.pop()
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
                        alive &= keep[unit.bit_length() - 1]
                        chosen |= unit
                        changed = True
        if chosen is None:
            continue
        if step < len(wide):
            d, parts = wide[step]
            for p in reversed(parts):  # the first part on top
                if not chosen & (d ^ p):
                    stack.append((alive & ~(d ^ p),
                                  chosen if p & (p - 1) else chosen | p, step + 1))
            continue
        var = step - len(wide)
        while var < len(domains) and domains[var] & chosen:
            var += 1
        if var == len(domains):
            return chosen
        pair = alive & domains[var]  # two values: only a choice clears any
        low = pair & -pair
        step = len(wide) + var + 1
        stack.append((alive ^ low, chosen | pair ^ low, step))
        stack.append((alive ^ pair ^ low, chosen | low, step))
    return None


def solve_clique_union(g: MarkedGraph) -> Solution:
    """Exact solution on a clique-union marked graph.

    Every free clique contributes exactly one solution vertex, so any
    feasible solution has size equal to the number of cliques; the CSP
    decides whether the marked vertices can all be dominated.  The graph is
    encoded, ``solve_binary`` searches the split, and its witness mask is
    decoded once."""
    domains, constraints = encode(g)
    witness = solve_binary(domains, constraints)
    if witness is None:
        return INFEASIBLE
    return Solution.found(len(domains), g.base.decode(witness))
