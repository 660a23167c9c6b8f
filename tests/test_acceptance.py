"""Acceptance suite.

Each test covers one release criterion and prints a single pass/fail line
on the real terminal (bypassing capture) so a full run reads as a short
scorecard.  Tolerances and corpus sizes are fixed here on purpose; loosen
them only with a matching change to the documented guarantees.
"""

import itertools
import random
import time

import pytest

from conftest import (connected_labeled_graphs, random_clique_union,
                      seeded_marked_graphs)
from midsolve.analysis import (REFERENCE_WEIGHTS, TIGHT_LABELS, WeightVector,
                               audit_weights, optimize_weights,
                               recurrence_catalog)
from midsolve.csp import CspInstance, solve_clique_union, split_to_binary
from midsolve.graph import MarkedGraph, plain_graph
from midsolve.instances import gen_lower_bound, gen_random, mark_random
from midsolve.oracle import (check_ids, enumerate_maximal_independent_sets,
                             exhaustive_mids)
from midsolve.lb_trace import leaf_growth, trace
from midsolve.solver import solve


@pytest.fixture
def scorecard(capsys, request):
    """Yields a reporter; prints `criterion N (...): PASS|FAIL` uncaptured."""
    outcome = {"ok": True}
    yield outcome
    label = request.node.get_closest_marker("criterion").args[0]
    status = "PASS" if outcome["ok"] else "FAIL"
    with capsys.disabled():
        print(f"\ncriterion {label}: {status}")


def criterion(label):
    return pytest.mark.criterion(label)


@criterion("1 (oracle equivalence)")
def test_oracle_equivalence(scorecard):
    checked = 0
    for g in connected_labeled_graphs(5):
        sol, _ = solve(g)
        ref = exhaustive_mids(g)
        ok = sol.feasible == ref.feasible and sol.size == ref.size \
            and (not sol.feasible or check_ids(g, sol.witness))
        if not ok:
            scorecard["ok"] = False
        assert ok, f"mismatch on {g!r}"
        checked += 1
    assert checked == 772  # 1 + 1 + 4 + 38 + 728 connected labeled graphs

    checked = 0
    for seed, g in enumerate(seeded_marked_graphs()):  # |F| + |M| <= 8
        sol, _ = solve(g)
        ref = exhaustive_mids(g)
        ok = sol.feasible == ref.feasible and sol.size == ref.size \
            and (not sol.feasible or check_ids(g, sol.witness))
        if not ok:
            scorecard["ok"] = False
        assert ok, f"mismatch on seed {seed}: {g!r}"
        checked += 1
    assert checked == 500


def _enumerate_assignments(inst):
    for combo in itertools.product(*inst.domains):
        assignment = dict(enumerate(combo))
        if all(any(assignment[var] == val for var, val in c)
               for c in inst.constraints):
            yield tuple(sorted(assignment.items()))


@criterion("2 (csp endgame equivalence)")
def test_csp_endgame_equivalence(scorecard):
    for seed in range(300):
        g = random_clique_union(seed)
        got = solve_clique_union(g)
        ref = exhaustive_mids(g)
        ok = got.feasible == ref.feasible and got.size == ref.size \
            and (not got.feasible or check_ids(g, got.witness))
        if not ok:
            scorecard["ok"] = False
        assert ok, f"CSP mismatch on seed {seed}"

    for seed in range(200):
        rnd = random.Random(10_000 + seed)
        n = rnd.randint(1, 8)
        domains = tuple(tuple(range(1, rnd.randint(1, 4) + 1))
                        for _ in range(n))
        lits = [(i, v) for i, d in enumerate(domains) for v in d]
        constraints = []
        for _ in range(rnd.randint(0, 5)):
            c = frozenset(rnd.sample(lits, rnd.randint(1, min(4, len(lits)))))
            if len({var for var, _ in c}) <= 4:
                constraints.append(c)
        inst = CspInstance(domains, tuple(constraints))
        direct = set(_enumerate_assignments(inst))
        via = set()
        for sub in split_to_binary(inst):
            via |= set(_enumerate_assignments(sub))
        if direct != via:
            scorecard["ok"] = False
        assert direct == via, f"split changed solutions on seed {seed}"


@criterion("3 (recurrence audit)")
def test_recurrence_audit(scorecard):
    catalog = recurrence_catalog()
    assert len(catalog) == 24
    max_factor, worst = audit_weights(WeightVector(0.8482, 0.9685), catalog)
    ok = 1.35 <= max_factor <= 1.35684 + 1e-4 and set(worst) <= set(TIGHT_LABELS)
    if not ok:
        scorecard["ok"] = False
    assert ok, f"audit gave {max_factor}, worst {worst}"

    best = optimize_weights(catalog)
    best_factor, _ = audit_weights(best, catalog)
    if best_factor > 1.3569:
        scorecard["ok"] = False
    assert best_factor <= 1.3569


@criterion("4 (lower-bound behavior)")
def test_lower_bound_behavior(scorecard):
    for l in range(5, 15):
        rep = trace(l)
        ok = rep.case9_only_above_4 and rep.candidate_shapes_ok \
            and rep.child_removals_ok
        if not ok:
            scorecard["ok"] = False
        assert ok, f"structural claim failed at l={l}"

    rows = leaf_growth(11, 14)  # ratios at l = 12..14
    for _, _, ratio in rows[1:]:
        if abs(ratio - 1.7549) / 1.7549 >= 0.05:
            scorecard["ok"] = False
        assert abs(ratio - 1.7549) / 1.7549 < 0.05, f"ratio {ratio}"


@criterion("5 (invariant suite)")
def test_invariant_suite(scorecard):
    for seed in range(1000):
        n = 6 + seed % 25  # up to 30 vertices
        g = mark_random(gen_random(n, 0.08 + (seed % 6) * 0.06, seed),
                        0.2, seed + 777)
        try:
            sol, _ = solve(g, assert_mode=True)
        except AssertionError:
            scorecard["ok"] = False
            raise
        if sol.feasible and not check_ids(g, sol.witness):
            scorecard["ok"] = False
        assert not sol.feasible or check_ids(g, sol.witness)


@criterion("6 (desk-scale runtime)")
def test_desk_scale_runtime(scorecard):
    for seed in range(10):
        g = gen_random(40, 0.2, seed)
        start = time.perf_counter()
        solve(g)
        elapsed = time.perf_counter() - start
        if elapsed >= 60:
            scorecard["ok"] = False
        assert elapsed < 60, f"n=40 seed {seed} took {elapsed:.1f}s"

    start = time.perf_counter()
    solve(gen_lower_bound(14))
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        scorecard["ok"] = False
    assert elapsed < 10, f"layered l=14 took {elapsed:.1f}s"


@criterion("7 (triangle-union enumeration count)")
def test_triangle_union_counts(scorecard):
    for k in range(1, 7):
        edges = []
        for t in range(k):
            a = 3 * t
            edges += [(a, a + 1), (a + 1, a + 2), (a, a + 2)]
        g = plain_graph(range(3 * k), edges)
        count = sum(1 for _ in enumerate_maximal_independent_sets(g))
        if count != 3 ** k:
            scorecard["ok"] = False
        assert count == 3 ** k, f"{count} sets for {k} triangles"
