import math
import random

import pytest

from conftest import complete, cycle, path, star
from midsolve import analysis
from midsolve.analysis import (LB_GROWTH_RATE, REFERENCE_WEIGHTS, TIGHT_LABELS,
                               AnalysisError, Recurrence, WeightVector,
                               audit_weights, branching_factor, measure,
                               optimize_weights, recurrence_catalog)
from midsolve.graph import MarkedGraph
from midsolve.instances import gen_lower_bound


class TestWeightVector:
    def test_reference_weights_admissible(self):
        assert REFERENCE_WEIGHTS.is_admissible()

    def test_uniform_weights_admissible(self):
        assert WeightVector(1.0, 1.0).is_admissible()

    def test_boundary_point(self):
        # w2 - w1 = 1 - w2 = 0.25 sits exactly on both increment bounds
        assert WeightVector(0.5, 0.75).is_admissible()

    def test_increasing_increments_rejected(self):
        # w2 - w1 = 0.5 > w1 = 0.4
        assert not WeightVector(0.4, 0.9).is_admissible()

    def test_out_of_order_rejected(self):
        assert not WeightVector(0.9, 0.8).is_admissible()

    def test_for_degree(self):
        w = WeightVector(0.5, 0.8)
        assert w.for_degree(0) == 0.0
        assert w.for_degree(1) == 0.5
        assert w.for_degree(2) == 0.8
        assert w.for_degree(3) == w.for_degree(9) == 1.0


class TestMeasure:
    def test_k4_all_heavy(self):
        assert measure(complete(4)) == pytest.approx(4.0)

    def test_path3(self):
        w = REFERENCE_WEIGHTS
        assert measure(path(3)) == pytest.approx(2 * w.w1 + w.w2)

    def test_marked_contribute_nothing(self):
        # weights follow the free-degree: the marked neighbor does not count
        g = MarkedGraph({0, 1}, {2}, [(0, 1), (1, 2)])
        assert measure(g) == pytest.approx(2 * REFERENCE_WEIGHTS.w1)
        assert measure(MarkedGraph({0}, {1}, [(0, 1)])) == 0.0

    def test_bounded_by_free_count(self):
        for g in (cycle(7), star(5), gen_lower_bound(4)):
            assert 0.0 <= measure(g) <= len(g.free) + 1e-12


class TestBranchingFactor:
    def test_single_branch_is_one(self):
        r = Recurrence("x", ((0, 0, 1),))
        assert branching_factor(r, REFERENCE_WEIGHTS) == 1.0

    def test_two_symmetric_unit_branches(self):
        # P[k] = 2 P[k-1]  =>  tau = 2
        r = Recurrence("x", ((0, 0, 1), (0, 0, 1)))
        assert branching_factor(r, REFERENCE_WEIGHTS) == pytest.approx(2.0, abs=1e-8)

    def test_fibonacci_shape(self):
        # P[k] = P[k-1] + P[k-2]  =>  golden ratio
        r = Recurrence("x", ((0, 0, 1), (0, 0, 2)))
        assert branching_factor(r, REFERENCE_WEIGHTS) == pytest.approx(
            (1 + math.sqrt(5)) / 2, abs=1e-8)

    def test_multiplicity_form(self):
        # 6 P[k-6]  =>  6 ** (1/6)
        r = Recurrence("x", ((0, 0, 6),), multiplicity=6)
        assert branching_factor(r, REFERENCE_WEIGHTS) == pytest.approx(
            6 ** (1 / 6), abs=1e-12)

    def test_nonpositive_delta_rejected(self):
        r = Recurrence("bad", ((0, 0, 1), (2, -2, 0)))
        with pytest.raises(AnalysisError, match="bad"):
            branching_factor(r, WeightVector(1.0, 1.0))

    def test_root_property(self):
        # the returned tau satisfies the characteristic equation
        for r in recurrence_catalog():
            tau = branching_factor(r, REFERENCE_WEIGHTS)
            if r.multiplicity is not None or len(r.branches) == 1:
                continue
            assert sum(tau ** -d for d in r.deltas(REFERENCE_WEIGHTS)) == \
                pytest.approx(1.0, abs=1e-6)


class TestCatalog:
    def test_has_24_rules(self):
        assert len(recurrence_catalog()) == 24

    def test_labels_unique(self):
        labels = [r.label for r in recurrence_catalog()]
        assert len(labels) == len(set(labels))

    def test_tight_labels_present(self):
        labels = {r.label for r in recurrence_catalog()}
        assert set(TIGHT_LABELS) <= labels

    def test_multiplicity_entries(self):
        by_label = {r.label: r for r in recurrence_catalog()}
        assert by_label["2"].multiplicity == 6
        assert by_label["18"].multiplicity == 6
        assert by_label["3"].multiplicity is None

    def test_branch_counts(self):
        by_label = {r.label: r for r in recurrence_catalog()}
        assert len(by_label["15.1"].branches) == 4
        assert len(by_label["9.2"].branches) == 3
        assert len(by_label["12"].branches) == 2

    def test_all_deltas_positive_under_reference_weights(self):
        for r in recurrence_catalog():
            assert all(d > 0 for d in r.deltas(REFERENCE_WEIGHTS)), r.label


class TestAudit:
    def test_reference_weights_bound(self):
        max_factor, worst = audit_weights(REFERENCE_WEIGHTS)
        assert 1.35 <= max_factor <= 1.3569
        assert set(worst) <= set(TIGHT_LABELS)

    def test_uniform_weights_are_worse(self):
        uniform, _ = audit_weights(WeightVector(1.0, 1.0))
        reference, _ = audit_weights(REFERENCE_WEIGHTS)
        assert uniform > reference

    def test_explicit_catalog_accepted(self):
        cat = [Recurrence("a", ((0, 0, 1), (0, 0, 1))),
               Recurrence("b", ((0, 0, 2), (0, 0, 2)))]
        max_factor, worst = audit_weights(REFERENCE_WEIGHTS, cat)
        assert max_factor == pytest.approx(2.0, abs=1e-8)
        assert worst == ("a",)

    def test_empty_catalog_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            audit_weights(REFERENCE_WEIGHTS, [])


class TestOptimize:
    def test_recovers_reference_region(self):
        w = optimize_weights()
        assert w.is_admissible()
        assert abs(w.w1 - REFERENCE_WEIGHTS.w1) <= 0.02
        assert abs(w.w2 - REFERENCE_WEIGHTS.w2) <= 0.02
        max_factor, _ = audit_weights(w)
        assert max_factor <= 1.3569

    def test_no_better_than_reference_by_much(self):
        w = optimize_weights()
        opt, _ = audit_weights(w)
        ref, _ = audit_weights(REFERENCE_WEIGHTS)
        assert opt <= ref + 1e-5

    def test_frozen_weights(self):
        assert optimize_weights() == WeightVector(0.841033, 0.968467)

    def test_empty_catalog_rejected(self):
        with pytest.raises(AnalysisError, match="empty"):
            optimize_weights([])

    def test_no_admissible_vector_rejected(self):
        # the zero branch makes every vector's audit fail in the first stage
        with pytest.raises(AnalysisError, match="no admissible weight vector"):
            optimize_weights([Recurrence("z", ((0, 0, 0), (1, 0, 0)))])


def full_audit_optimize(catalog):
    """The optimizer as it was before early rejection: every admissible
    vector gets a full ``audit_weights``.  Kept as the reference that the
    early-exit walk must agree with."""
    def objective(w):
        if not w.is_admissible():
            return float("inf")
        try:
            return audit_weights(w, catalog)[0]
        except AnalysisError:
            return float("inf")

    best_w = None
    best_f = float("inf")
    lo1, hi1, lo2, hi2 = 0.0, 1.0, 2.0 / 3.0, 1.0
    for step in analysis.OPTIMIZE_STEPS:
        for w2 in analysis._grid(lo2, hi2, step):
            for w1 in analysis._grid(max(lo1, w2 / 2), min(hi1, w2), step):
                w = WeightVector(round(w1, 6), round(w2, 6))
                f = objective(w)
                if f < best_f - 1e-12 or (abs(f - best_f) <= 1e-12
                                          and (best_w is None or (w.w1, w.w2) < (best_w.w1, best_w.w2))):
                    best_f, best_w = f, w
        lo1, hi1 = best_w.w1 - 2 * step, best_w.w1 + 2 * step
        lo2, hi2 = max(2.0 / 3.0, best_w.w2 - 2 * step), min(1.0, best_w.w2 + 2 * step)
    return best_w


def shuffled_catalog(seed):
    catalog = recurrence_catalog()
    random.Random(seed).shuffle(catalog)
    return catalog


#: A rule whose first branch, 3 w1 - 2 w2, is nonpositive on part of the
#: admissible region, so its audit raises there.
RAISING_RULE = Recurrence("raises", ((3, -2, 0), (0, 0, 2)))

#: Factor 2 wherever w1 + w2 >= 1.5, so many grid vectors tie at the
#: optimum, and the tie-break winner (least w1, at w2 near 1) is visited
#: after other tied vectors in earlier rows.
PLATEAU = [Recurrence("flat", ((0, 0, 1), (0, 0, 1))),
           Recurrence("edge", ((2, 2, -2), (2, 2, -2)))]


class TestOptimizeMatchesFullAudit:
    @pytest.fixture(autouse=True)
    def coarse_grid(self, monkeypatch):
        # two coarse stages keep the reference runs near 1 s in all
        monkeypatch.setattr(analysis, "OPTIMIZE_STEPS", (0.05, 0.01))

    @pytest.mark.parametrize("catalog", [
        recurrence_catalog(),
        *(shuffled_catalog(s) for s in (1, 2, 3)),
        recurrence_catalog() + [RAISING_RULE],
        PLATEAU,
    ], ids=["packaged", "shuffle-1", "shuffle-2", "shuffle-3", "raising-rule",
            "plateau"])
    def test_same_vector(self, catalog):
        before = list(catalog)
        assert optimize_weights(catalog) == full_audit_optimize(catalog)
        assert catalog == before

    def test_raising_rule_raises_on_part_of_the_region(self):
        w = WeightVector(0.5, 0.9)
        assert w.is_admissible()
        with pytest.raises(AnalysisError, match="raises"):
            branching_factor(RAISING_RULE, w)


class TestLbRecurrence:
    def test_growth_rate(self):
        # L[k] = L[k-3] + L[k-4] + L[k-5] from L[0..4] = 1: the ratio of
        # consecutive values tends to the dominant root
        vals = [1] * 5
        for k in range(5, 82):
            vals.append(vals[k - 3] + vals[k - 4] + vals[k - 5])
        assert vals[81] / vals[80] == pytest.approx(LB_GROWTH_RATE, abs=1e-6)

    def test_growth_rate_is_characteristic_root(self):
        x = LB_GROWTH_RATE
        assert x ** 5 == pytest.approx(x ** 2 + x + 1, abs=1e-6)
