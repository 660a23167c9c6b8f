import pytest

from midsolve import lb_trace
from midsolve.analysis import LB_GROWTH_RATE
from midsolve.graph import plain_graph
from midsolve.instances import gen_lower_bound
from midsolve.lb_trace import leaf_growth, trace


def record_every_node(l):
    """A reference tracer that keeps a record of every node, with its
    parent's id and its decoded free set, rebuilds parent -> children from
    the ids afterwards and then checks the same claims as ``trace``.  It
    reads the family, the candidates and the solver through ``lb_trace``,
    so a test that patches them there changes both tracers."""
    records = []  # per node: (parent id, depth, free vertices, case, candidates)
    open_ids = []  # node id per depth along the current DFS path

    def hook(depth, node, case):
        del open_ids[depth:]
        records.append((open_ids[-1] if open_ids else None, depth, node.free, case,
                        tuple(lb_trace.case9_candidates(node)) if case == 9 else None))
        open_ids.append(len(records) - 1)

    _, stats = lb_trace.solve(lb_trace.gen_lower_bound(l), on_node=hook, prune=False)
    children = {}
    for parent, _, free, _, _ in records:
        if parent is not None:
            children.setdefault(parent, []).append(len(free))
    case9_only = shapes_ok = removals_ok = True
    log = []
    for node_id, (_, depth, free, case, cands) in enumerate(records):
        if len(free) > 4:
            if case != 9:
                case9_only = False
                continue
            log.append((depth, len(free), cands))
            lo, hi = min(free), max(free)
            if hi != 2 * l or free != frozenset(range(lo, hi + 1)) or cands != (lo, 2 * l):
                shapes_ok = False
            if sorted(len(free) - c for c in children.get(node_id, [])) != [3, 4, 5]:
                removals_ok = False
    return stats.nodes, stats.leaves, case9_only, shapes_ok, removals_ok, log


def summary(report):
    return (report.nodes, report.leaves, report.case9_only_above_4,
            report.candidate_shapes_ok, report.child_removals_ok,
            [(r.depth, r.free_count, r.candidates) for r in report.candidate_log])


def cycle_family(l):
    vs = range(1, 2 * l + 1)
    return plain_graph(vs, [(v, v % (2 * l) + 1) for v in vs])


def path_family(l):
    return plain_graph(range(1, 2 * l + 1), [(v, v + 1) for v in range(1, 2 * l)])


def family_with_chord(l):
    """The family plus the edge u_2 v_4 = {3, 8}: at l = 5 one child of the
    root removes 6 vertices, and every suffix keeps its shape."""
    return plain_graph(range(1, 2 * l + 1), [*gen_lower_bound(l).edges(), (3, 8)])


class TestTrace:
    def test_requires_l_at_least_3(self):
        with pytest.raises(ValueError):
            trace(2)

    @pytest.mark.parametrize("l", [3, 5, 8])
    def test_structural_claims(self, l):
        report = trace(l)
        assert report.case9_only_above_4
        assert report.candidate_shapes_ok
        assert report.child_removals_ok
        assert report.candidate_log  # at least the root qualifies

    def test_root_candidates(self):
        report = trace(6)
        root = report.candidate_log[0]
        assert root.depth == 0
        assert root.candidates == (1, 12)
        assert root.free_count == 12

    def test_known_counts(self):
        r5, r8 = trace(5), trace(8)
        assert (r5.nodes, r5.leaves) == (16, 11)
        assert (r8.nodes, r8.leaves) == (94, 63)

    def test_candidate_suffixes_shrink(self):
        report = trace(7)
        for rec in report.candidate_log:
            lo, hi = rec.candidates
            assert hi == 14
            assert rec.free_count == hi - lo + 1


class TestPathTrace:
    """``trace`` keeps only the current path and records only the nodes it
    checks; the reference keeps every node."""

    @pytest.mark.parametrize("l", range(3, 15))
    def test_same_report_as_recording_every_node(self, l):
        report = trace(l)
        assert summary(report) == record_every_node(l)
        assert all(len(r.removals) == 3 for r in report.candidate_log)

    def test_root_removals(self):
        assert sorted(trace(6).candidate_log[0].removals) == [3, 4, 5]

    @pytest.mark.parametrize("family, l, flags", [
        (cycle_family, 3, (True, False, False)),
        (cycle_family, 5, (False, False, False)),
        (path_family, 5, (False, True, True)),
        (family_with_chord, 5, (True, True, False)),
    ], ids=["cycle-3", "cycle-5", "path-5", "chord-5"])
    def test_each_flag_can_fail(self, monkeypatch, family, l, flags):
        monkeypatch.setattr(lb_trace, "gen_lower_bound", family)
        report = trace(l)
        assert summary(report)[2:5] == flags
        assert summary(report) == record_every_node(l)

    def test_wrong_candidates_fail_the_shape_check(self, monkeypatch):
        monkeypatch.setattr(lb_trace, "case9_candidates",
                            lambda g: sorted(g.free)[1:2] + [max(g.free)])
        report = trace(6)
        assert summary(report)[2:5] == (True, False, True)
        assert summary(report) == record_every_node(6)


class TestLeafGrowth:
    def test_invalid_range(self):
        with pytest.raises(ValueError):
            leaf_growth(5, 5)
        with pytest.raises(ValueError):
            leaf_growth(2, 6)

    def test_rows_and_first_ratio(self):
        rows = leaf_growth(3, 6)
        assert [l for l, _, _ in rows] == [3, 4, 5, 6]
        assert rows[0][2] is None
        assert all(r is not None for _, _, r in rows[1:])

    def test_ratio_approaches_squared_growth_rate(self):
        rows = leaf_growth(10, 13)
        target = LB_GROWTH_RATE ** 2  # two vertices leave per recurrence step
        for _, _, ratio in rows[1:]:
            assert abs(ratio - target) / target < 0.05

    def test_counts_monotone(self):
        rows = leaf_growth(3, 9)
        leaves = [c for _, c, _ in rows]
        assert leaves == sorted(leaves)
        assert leaves[-1] > leaves[0]
