"""Weighted search-tree analysis for the branching rules.

Free vertices are weighted by their free-degree (w0=0, w1, w2, and 1 from
degree 3 up); the measure of an instance is the weight sum over the free
vertices.  Each branching rule guarantees a minimum measure decrease per
child, recorded in a data-file catalog; the branching factor of a rule is
the unique tau > 1 with sum(tau**-delta_i) == 1, and the running-time base
is the maximum factor over the catalog.  Weight optimization is a nested
grid search over the small admissible (w1, w2) region.  It rejects a grid
vector at the first rule whose factor exceeds the incumbent's, and tries
that rule first on the next vector; every comparison that picks the
answer is the one a full audit of each vector would make, so the answer
is the same as that of the full audit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from importlib import resources
from typing import Iterable, Optional, Sequence

from .graph import select
from .weights import WeightVector  # re-exported: part of this API

#: Asymptotic growth rate of the lower-bound leaf recurrence
#: L[k] = L[k-3] + L[k-4] + L[k-5]: the real root of x^5 = x^2 + x + 1.
LB_GROWTH_RATE = 1.3247179572


class AnalysisError(ValueError):
    pass


REFERENCE_WEIGHTS = WeightVector(0.8482, 0.9685)

#: Worst-case rules under the optimized weights.
TIGHT_LABELS = ("8.1b", "9.3(b)ii", "11(|N2|=4)", "13")


@dataclass(frozen=True)
class Recurrence:
    """One branching rule: per-child measure decreases as (a, b, c) meaning
    a*w1 + b*w2 + c*w3; ``multiplicity`` marks the uniform L*P[k-c] shape."""

    label: str
    branches: tuple[tuple[int, int, int], ...]
    multiplicity: Optional[int] = None

    def deltas(self, w: WeightVector) -> list[float]:
        return [a * w.w1 + b * w.w2 + c * 1.0 for a, b, c in self.branches]


def measure(g) -> float:
    """Weight sum over the free vertices under the reference weights; marked
    vertices contribute 0."""
    return sum(REFERENCE_WEIGHTS.for_degree(d) for d in select(g.degrees(), g.free_mask))


# ---------------------------------------------------------------------------
# Branching factors


def branching_factor(r: Recurrence, w: WeightVector) -> float:
    """The unique tau > 1 with sum(tau**-delta) == 1, to within 1e-9.

    All deltas must be strictly positive.  The left side is strictly
    decreasing in tau, so bisection on [1, 64] is safe.
    """
    deltas = r.deltas(w)
    for (a, b, c), d in zip(r.branches, deltas):
        if d <= 0:
            raise AnalysisError(
                f"recurrence {r.label}: branch ({a},{b},{c}) has nonpositive "
                f"measure decrease {d:.6f}")
    if r.multiplicity is not None:
        return r.multiplicity ** (1.0 / deltas[0])
    if len(deltas) == 1:
        return 1.0
    exponents = [-d for d in deltas]
    lo, hi = 1.0 + 1e-12, 64.0
    while hi - lo > 1e-9:
        mid = (lo + hi) / 2
        if sum([mid ** e for e in exponents]) > 1.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


_RECORD_RE = re.compile(
    r"^(?P<label>[^;]+);\s*(?P<count>\d+)\s*;\s*(?P<deltas>[^;]+?)\s*(?:;\s*mult=(?P<mult>\d+)\s*)?$")
_DELTA_RE = re.compile(r"\((-?\d+),(-?\d+),(-?\d+)\)")


def recurrence_catalog() -> list[Recurrence]:
    """The full catalog, parsed from the packaged data file."""
    text = resources.files("midsolve.data").joinpath("recurrences.txt").read_text()
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _RECORD_RE.match(line)
        if m is None:
            raise AnalysisError(f"recurrences.txt:{lineno}: unparseable record")
        deltas = tuple((int(a), int(b), int(c))
                       for a, b, c in _DELTA_RE.findall(m.group("deltas")))
        if len(deltas) != int(m.group("count")):
            raise AnalysisError(
                f"recurrences.txt:{lineno}: branch count mismatch")
        mult = int(m.group("mult")) if m.group("mult") else None
        out.append(Recurrence(m.group("label").strip(), deltas, mult))
    return out


def audit_weights(w: WeightVector,
                  catalog: Optional[Sequence[Recurrence]] = None
                  ) -> tuple[float, tuple[str, ...]]:
    """Maximum branching factor over the catalog and its argmax labels."""
    if catalog is None:
        catalog = recurrence_catalog()
    factors = [(branching_factor(r, w), r.label) for r in catalog]
    if not factors:
        raise AnalysisError("empty recurrence catalog")
    max_factor = max(f for f, _ in factors)
    worst = tuple(label for f, label in factors if f >= max_factor - 1e-9)
    return max_factor, worst


def _grid(lo: float, hi: float, step: float) -> Iterable[float]:
    n = int(round((hi - lo) / step))
    return (lo + i * step for i in range(n + 1))


#: Grid steps of ``optimize_weights``: one nested refinement stage each.
OPTIMIZE_STEPS = (1e-2, 1e-3, 1e-4)


def optimize_weights(catalog: Optional[Sequence[Recurrence]] = None) -> WeightVector:
    """Best admissible weights by nested grid refinement.

    Ties go to the lexicographically smallest (w1, w2) pair so the result is
    deterministic.  A vector is rejected at the first rule whose factor
    exceeds the incumbent's by more than the tie tolerance, since its
    maximum would lose the comparison anyway; that rule moves to the front
    of a private copy of the catalog, so the next vector usually fails on
    it at once.  A vector that passes every rule gets its exact maximum, and
    until there is an incumbent every rule is audited, so the grid, the
    comparisons and the answer are those of a full audit per vector.  The
    caller's catalog is iterated once and left as it was.
    """
    rules = list(recurrence_catalog() if catalog is None else catalog)
    if not rules:
        raise AnalysisError("empty recurrence catalog")

    def objective(w: WeightVector, bound: float) -> float:
        """Maximum factor of w over the rules; inf if w is inadmissible, if
        a rule's factor is undefined at w, or at the first factor above
        bound."""
        if not w.is_admissible():
            return float("inf")
        worst = 0.0
        try:
            for i, r in enumerate(rules):
                f = branching_factor(r, w)
                if f > bound:
                    rules.insert(0, rules.pop(i))
                    return float("inf")
                worst = max(worst, f)
        except AnalysisError:
            return float("inf")
        return worst

    best_w = None
    best_f = float("inf")
    lo1, hi1, lo2, hi2 = 0.0, 1.0, 2.0 / 3.0, 1.0
    for step in OPTIMIZE_STEPS:
        for w2 in _grid(lo2, hi2, step):
            for w1 in _grid(max(lo1, w2 / 2), min(hi1, w2), step):
                w = WeightVector(round(w1, 6), round(w2, 6))
                f = objective(w, best_f + 1e-12)
                if f < best_f - 1e-12 or (abs(f - best_f) <= 1e-12
                                          and (best_w is None or (w.w1, w.w2) < (best_w.w1, best_w.w2))):
                    best_f, best_w = f, w
        if best_w is None:
            raise AnalysisError("no admissible weight vector found")
        # refine around the incumbent
        lo1, hi1 = best_w.w1 - 2 * step, best_w.w1 + 2 * step
        lo2, hi2 = max(2.0 / 3.0, best_w.w2 - 2 * step), min(1.0, best_w.w2 + 2 * step)
    return best_w
