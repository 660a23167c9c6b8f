"""Clique-union endgame via constraint satisfaction.

When the free subgraph is a disjoint union of cliques of size at most 4 and
every marked vertex has at most 4 free neighbors, a solution must pick
exactly one vertex per clique.  This becomes a CSP with one variable per
clique (values = positions within the clique) and, per marked vertex, one
"at least one of these (variable, value) literals holds" constraint.

Domains of size 3 and 4 are split into halves.  The choices of a half per
variable are walked depth first, each restricting the constraints, and a
prefix that empties a constraint is cut.  Each binary-domain leaf is solved
by backtracking with unit propagation, up to the first satisfiable one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import MarkedGraph, bits, non_cliques, select
from .solution import INFEASIBLE, Solution


class CspError(ValueError):
    """Precondition violation in the CSP encoding."""


Literal = tuple[int, int]  # (variable index, value)


@dataclass(frozen=True)
class CspInstance:
    """Finite-domain variables with disjunctive literal constraints.

    ``domains[i]`` is the ordered tuple of values variable i may take; at
    least one literal of each constraint must hold, so an empty constraint
    is unsatisfiable.  A literal names a variable in ``range(len(domains))``
    and is false if its value lies outside that variable's domain."""

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

    @classmethod
    def _build(cls, domains: tuple, constraints: tuple) -> "CspInstance":
        """Internal constructor without the checks, for a restriction of a
        checked instance (parts of its domains, subsets of its constraints)."""
        inst = object.__new__(cls)
        object.__setattr__(inst, "domains", domains)
        object.__setattr__(inst, "constraints", constraints)
        return inst

    @property
    def n_vars(self) -> int:
        return len(self.domains)


@dataclass(frozen=True)
class CliqueEncoding:
    """Decoder: value j of variable i is the j-th vertex of clique i."""

    clique_of: tuple[tuple[int, ...], ...]

    def decode(self, assignment: dict) -> frozenset:
        return frozenset(self.clique_of[i][assignment[i] - 1]
                         for i in range(len(self.clique_of)))


def encode(g: MarkedGraph) -> tuple[CspInstance, CliqueEncoding]:
    """CSP instance for a clique-union marked graph.

    Cliques are numbered by smallest member; positions within a clique are
    ascending vertex identifiers, values 1..|K|.
    """
    ids, adj, free, marked = g.base.ids, g.base.adj, g.free_mask, g.marked_mask
    comps, deg = g.component_masks(), g.degrees()
    others = non_cliques(comps, deg)
    cliques = [tuple(select(ids, c)) for c in comps]
    for comp, clique in zip(comps, cliques):
        if comp in others:
            raise CspError(f"free component {list(clique)} is not a clique")
        if len(clique) > 4:
            raise CspError(f"free clique {list(clique)} larger than 4")
    for u in bits(marked):
        if deg[u] > 4:
            raise CspError(f"marked vertex {ids[u]} has more than 4 free neighbors")

    position = {v: (i, j + 1) for i, c in enumerate(comps)  # keyed by index
                for j, v in enumerate(bits(c))}
    constraints = tuple(frozenset(position[v] for v in bits(adj[u] & free))
                        for u in bits(marked))
    inst = CspInstance(tuple(tuple(range(1, len(cl) + 1)) for cl in cliques),
                       constraints)
    return inst, CliqueEncoding(tuple(cliques))


# ---------------------------------------------------------------------------
# Domain splitting


def _split(inst: CspInstance, cut: bool):
    """Leaves of the domain split, depth first in ``itertools.product`` order
    over ascending variables.  Each choice restricts what its prefix left: a
    constraint a fixed singleton satisfies is dropped, the others lose the
    ruled-out literals.  ``cut`` drops each prefix that empties a constraint."""
    used = frozenset().union(*inst.constraints)
    parts = [[(var, part, (var, part[0]) if len(part) == 1 else None,  # fixed literal
               {(v, x) for v, x in used if v == var and x not in part})
              for part in (dom[k:k + 2] for k in range(0, len(dom), 2))]
             for var, dom in enumerate(inst.domains) if len(dom) > 2]
    if not parts:
        yield inst
    domains = list(inst.domains)
    stack = [(inst.constraints, iter(parts[0]))] if parts else []
    while stack:  # per open level: the constraints its prefix left, its untried parts
        constraints, choices = stack[-1]
        for var, domains[var], fixed, dead in choices:
            sub = tuple(c - dead for c in constraints if fixed not in c)
            if cut and not all(sub):
                continue
            if len(stack) == len(parts):
                yield CspInstance._build(tuple(domains), sub)
            else:
                stack.append((sub, iter(parts[len(stack)])))
                break
        else:
            stack.pop()


def split_to_binary(inst: CspInstance) -> list[CspInstance]:
    """Every leaf of the split, none cut: instances with all domains of size
    <= 2 whose solution sets unite to the input's.  A size-4 domain gives two
    binary halves, a size-3 one a binary half and a singleton."""
    return list(_split(inst, cut=False))


# ---------------------------------------------------------------------------
# Binary-domain backtracking


def solve_binary(inst: CspInstance) -> Optional[dict]:
    """Satisfying assignment of a binary-domain instance, or None.

    Chronological backtracking over variables in ascending order, values in
    domain order, with unit propagation on almost-falsified constraints.
    The search is one loop over a stack of decisions, so the Python stack
    does not grow with the number of variables.
    """
    for dom in inst.domains:
        if len(dom) > 2:
            raise CspError("solve_binary requires domains of size <= 2")

    n = inst.n_vars
    assignment: dict = {}

    def literal_state(lit: Literal) -> Optional[bool]:
        var, val = lit
        if var in assignment:
            return assignment[var] == val
        return None if val in inst.domains[var] else False

    def propagate(trail: list) -> bool:
        """Assign forced literals until fixpoint; False on a wipeout."""
        changed = True
        while changed:
            changed = False
            for c in inst.constraints:
                open_lits = []
                satisfied = False
                for lit in c:
                    st = literal_state(lit)
                    if st is True:
                        satisfied = True
                        break
                    if st is None:
                        open_lits.append(lit)
                if satisfied:
                    continue
                if not open_lits:
                    return False
                if len(open_lits) == 1:
                    var, val = open_lits[0]
                    assignment[var] = val
                    trail.append(var)
                    changed = True
        return True

    # per decision: (variable, untried values, what propagation assigned
    # after its current value); the root's propagation is never undone
    decisions: list = []
    trail: list = []
    while True:
        if propagate(trail):
            var = next((i for i in range(n) if i not in assignment), None)
            if var is None:
                return dict(assignment)
            decisions.append((var, iter(inst.domains[var]), []))
        # undo the latest value and its propagation, then try the next value
        while decisions:
            var, values, trail = decisions[-1]
            while trail:
                del assignment[trail.pop()]
            assignment.pop(var, None)
            val = next(values, None)
            if val is not None:
                assignment[var] = val
                break
            decisions.pop()
        else:
            return None


def solve_clique_union(g: MarkedGraph) -> Solution:
    """Exact solution on a clique-union marked graph.

    Every free clique contributes exactly one solution vertex, so any
    feasible solution has size equal to the number of cliques; the CSP
    decides whether the marked vertices can all be dominated.  Leaves of the
    cut split are solved as the walk reaches them; the first satisfiable one
    is the first satisfiable member of ``split_to_binary``."""
    inst, enc = encode(g)
    for sub in _split(inst, cut=True):
        assignment = solve_binary(sub)
        if assignment is not None:
            witness = enc.decode(assignment)
            return Solution.found(len(witness), witness)
    return INFEASIBLE
