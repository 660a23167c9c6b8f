"""midsolve benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload search-plain --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src``.  The
run builds its inputs from ``--seed``, then repeats passes over them until
``--seconds`` would be exceeded.  A pass solves every drawn instance once
(or runs the weight optimizer once); every result is checked against the
frozen values in ``expected.json`` outside the timed calls.  Human-readable
lines (instance properties, per-instance fingerprints) come first; the last
line of standard output is the JSON result.

``--trace 0`` times the calls with nothing wrapped and reports the
end-to-end metrics.  Their times are in reference seconds: each pass (and
each block of set-ups) runs under a ``speed.Sampler``, and its measured
time, less the probes', is divided by the host speed factor the probes
give.  ``--trace 1`` alternates untraced passes with traced ones, where the
cross-module calls listed in ``spans.targets`` are wrapped, and reports the
per-layer metrics.  See README.md for what each metric
means and which workload it belongs to.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path
from typing import Optional

import spans
import speed
import workloads as wl

SRC = Path(__file__).resolve().parent.parent / "src"
LAYERS = ("solver", "graph", "csp", "analysis", "oracle", "instances", "lb_trace")
SETUP_REPS_PER_PASS = 3  # before every pass, so set-up is sampled across the run
CASE_IDS = (1, 2, 3, *range(5, 19), "csp_endgame", "empty")
ACCOUNTED_TOLERANCE = 0.02
clock = time.perf_counter


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result."""


@dataclasses.dataclass
class Pass:
    call_s: list  # time of each timed call, in the same order every pass
    ops: int  # the first ``ops`` calls are the operations
    outcomes: list
    speed: float = 1.0  # host speed factor of the pass (see speed.py); 1 if not probed
    failed: int = 0
    fingerprints: dict = dataclasses.field(default_factory=dict)  # instance id -> record
    totals: dict = dataclasses.field(default_factory=dict)  # summed search statistics

    @property
    def op_s(self) -> list:
        return self.call_s[:self.ops]

    @property
    def wall_s(self) -> float:
        return sum(self.call_s)

    @property
    def ref_op_s(self) -> list:
        """Operation times in reference seconds (see speed.py)."""
        return [t / self.speed for t in self.op_s]

    @property
    def ref_wall_s(self) -> float:
        return self.wall_s / self.speed


def import_layers():
    """Fresh import of the package from ``src``; returns its layer modules."""
    for name in [m for m in sys.modules if m == "midsolve" or m.startswith("midsolve.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(
        **{layer: importlib.import_module(f"midsolve.{layer}") for layer in LAYERS})
    if SRC not in Path(sys.modules["midsolve"].__file__).resolve().parents:
        raise BenchError(f"midsolve was imported from outside {SRC}")
    return mods


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def speed_factor(probes: list) -> float:
    """How much slower than the reference host the probes ran."""
    return statistics.fmean(probes) / speed.REFERENCE_S


def timed(sampler: Optional[speed.Sampler], fn, *args) -> tuple:
    """(result or the exception raised, seconds), less any probe time."""
    start = clock()
    try:
        out = fn(*args)
    except Exception as exc:  # a failed operation, not a failed run
        out = exc
    end = clock()
    return out, end - start - (sampler.spent(start, end) if sampler else 0.0)


# ---------------------------------------------------------------------------
# Workload kinds


@dataclasses.dataclass
class Instance:
    iid: str
    graph: object
    expected: dict


class SolveRun:
    """Seeded instances solved one ``solve()`` call each."""

    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload = workload
        self.seed = seed
        self.expected = expected
        self.inputs: list = []

    def build(self, mods) -> None:
        frozen = self.expected["instances"]
        self.inputs = [
            Instance(fam.instance_id(s), fam.build(mods, s), frozen[fam.instance_id(s)])
            for fam, s in wl.select(wl.SOLVE_WORKLOADS[self.workload], self.seed,
                                    self.expected)]

    def properties(self) -> dict:
        free = sum(len(i.graph.free) for i in self.inputs)
        marked = sum(len(i.graph.marked) for i in self.inputs)
        return {
            "instances": len(self.inputs),
            "free_vertices": free,
            "marked_vertices": marked,
            "marked_share": round(ratio(marked, free + marked), 4),
            "edges": sum(i.graph.edge_count() for i in self.inputs),
            "infeasible": sum(1 for i in self.inputs if i.expected["size"] is None),
        }

    def validate(self) -> None:
        share = self.properties()["marked_share"]
        if self.workload == "search-marked" and share < wl.MARKED_SHARE_FLOOR:
            raise BenchError(f"search-marked keeps a marked share of {share}, "
                             f"below the floor of {wl.MARKED_SHARE_FLOOR}")

    def run(self, mods, sampler: Optional[speed.Sampler] = None) -> Pass:
        op_s, outcomes = [], []
        for inst in self.inputs:
            out, seconds = timed(sampler, mods.solver.solve, inst.graph)
            op_s.append(seconds)
            outcomes.append(out)
        return Pass(op_s, len(op_s), outcomes)

    def check(self, mods, p: Pass) -> None:
        totals = {"nodes": 0, "leaves": 0, "max_depth": 0, "cases": {}}
        for inst, out in zip(self.inputs, p.outcomes):
            if isinstance(out, Exception):
                p.failed += 1
                p.fingerprints[inst.iid] = {"id": inst.iid, "error": repr(out)}
                continue
            sol, stats = out
            want = inst.expected["size"]
            if want is None:
                ok = not sol.feasible
            else:
                ok = (sol.feasible and sol.size == want
                      and mods.oracle.check_ids(inst.graph, sol.witness))
            p.failed += not ok
            p.fingerprints[inst.iid] = {
                "id": inst.iid,
                "size": sol.size,
                "witness": sorted(sol.witness) if sol.feasible else None,
                "nodes": stats.nodes,
                "leaves": stats.leaves,
                "max_depth": stats.max_depth,
                "case_counts": {str(k): v for k, v in
                                sorted(stats.case_counts.items(), key=lambda kv: str(kv[0]))},
            }
            totals["nodes"] += stats.nodes
            totals["leaves"] += stats.leaves
            totals["max_depth"] = max(totals["max_depth"], stats.max_depth)
            for case, n in stats.case_counts.items():
                totals["cases"][case] = totals["cases"].get(case, 0) + n
        p.totals = totals

    def work(self, p: Pass) -> int:
        return p.totals["nodes"]


class WeightRun:
    """``optimize_weights()`` plus the audit of the reference weights, on a
    seeded permutation of the recurrence catalog."""

    def __init__(self, seed: int, expected: dict):
        self.seed = seed
        self.expected = expected["weight_optimize"]
        self.catalog = None

    def build(self, mods) -> None:
        self.catalog = wl.permuted_catalog(mods, self.seed)

    def properties(self) -> dict:
        return {"recurrences": len(self.catalog)}

    def validate(self) -> None:
        pass

    def run(self, mods, sampler: Optional[speed.Sampler] = None) -> Pass:
        analysis = mods.analysis
        before = self.catalog.passes
        weights, op = timed(sampler, analysis.optimize_weights, self.catalog)
        audits = self.catalog.passes - before
        reference, audit = timed(sampler, analysis.audit_weights,
                                 analysis.REFERENCE_WEIGHTS, self.catalog)
        return Pass([op, audit], 1, [(weights, reference, audits)])

    def check(self, mods, p: Pass) -> None:
        weights, reference, audits = p.outcomes[0]
        record = {"id": "catalog", "audits": audits}
        if isinstance(weights, Exception) or isinstance(reference, Exception):
            p.failed = 1
            record["error"] = repr(weights if isinstance(weights, Exception) else reference)
        else:
            try:
                factor = mods.analysis.audit_weights(weights, self.catalog)[0]
            except mods.analysis.AnalysisError:  # weights the audit rejects
                factor = float("inf")
            record.update(weights=[weights.w1, weights.w2], optimized_factor=factor,
                          reference_factor=reference[0],
                          reference_worst=sorted(reference[1]))
            p.failed = int(not (
                record["weights"] == self.expected["weights"]
                and factor <= wl.OPTIMIZED_FACTOR_MAX
                and abs(reference[0] - self.expected["reference_factor"]) <= 1e-12))
        p.fingerprints["catalog"] = record
        p.totals = {"audits": audits}

    def work(self, p: Pass) -> int:
        return p.totals["audits"]


# ---------------------------------------------------------------------------
# Runs


def repeat(seconds: float, body) -> list:
    """Call body() at least once, and again while a call as long as the
    longest so far would end within ``seconds``."""
    begin = clock()
    results = []
    longest = 0.0
    while True:
        start = clock()
        results.append(body())
        longest = max(longest, clock() - start)
        if clock() - begin + longest > seconds:
            return results


def median_wall(passes: list) -> float:
    return statistics.median(p.wall_s for p in passes)


def same_trees(first: Pass, p: Pass) -> int:
    """Operations whose fingerprint differs from the first pass's."""
    return sum(1 for iid, rec in p.fingerprints.items() if first.fingerprints.get(iid) != rec)


def run_untraced(run, seconds: float) -> tuple:
    setup, setup_raw = [], []

    def one_pass():
        reps = []
        with speed.Sampler() as sampler:
            for _ in range(SETUP_REPS_PER_PASS):
                start = clock()
                mods = import_layers()
                run.build(mods)
                end = clock()
                reps.append(end - start - sampler.spent(start, end))
        factor = speed_factor(sampler.probes() or [speed.probe()])
        setup_raw.extend(reps)
        setup.extend(t / factor for t in reps)
        gc.collect()  # free the replaced modules, so peak memory does not grow with passes
        run.validate()
        with speed.Sampler() as sampler:
            p = run.run(mods, sampler)
        p.speed = speed_factor(sampler.probes() or [speed.probe()])
        run.check(mods, p)
        return p

    passes = repeat(seconds, one_pass)
    for p in passes[1:]:
        p.failed = max(p.failed, same_trees(passes[0], p))
    op_s = [t for p in passes for t in p.ref_op_s]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(p.ref_wall_s for p in passes), "s"),
        "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
        "search_nodes": (run.work(passes[0]), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"pass_wall_s": [round(p.ref_wall_s, 4) for p in passes],
             "raw_pass_wall_s": [round(p.wall_s, 4) for p in passes],
             "raw_setup_s": round(statistics.median(setup_raw), 5),
             "speed_factor": [round(p.speed, 3) for p in passes],
             "op_samples": len(op_s), **tail_percentile(op_s)}
    return passes, metrics, notes, True


def tail_percentile(samples: list) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples)
    for per_mille, name in ((999, "op_ms_p99.9"), (990, "op_ms_p99"), (900, "op_ms_p90")):
        rank = -(-n * per_mille // 1000)  # nearest rank, 1-based
        if n - rank >= 10:
            return {name: round(1e3 * sorted(samples)[rank - 1], 3)}
    return {}


def run_traced(run, seconds: float) -> tuple:
    mods = import_layers()
    run.build(mods)
    run.validate()
    untraced, traced, layers = [], [], []

    def one_pair():
        p = run.run(mods)
        run.check(mods, p)
        untraced.append(p)
        tracer = spans.Tracer(spans.targets(mods))
        with tracer:
            q = run.run(mods)
            timed = {name: dataclasses.replace(s) for name, s in tracer.spans.items()}
            run.check(mods, q)
        q.failed = max(q.failed, same_trees(untraced[0], q))
        traced.append(q)
        layers.append(layer_metrics(timed, tracer.spans["oracle.check_ids"], q))

    repeat(seconds, one_pair)
    for p in untraced[1:]:
        p.failed = max(p.failed, same_trees(untraced[0], p))
    metrics = {name: (statistics.median_low(m[name][0] for m in layers), unit)
               for name, (_, unit) in layers[0].items()}
    untraced_wall = median_wall(untraced)
    nodes = untraced[0].totals.get("nodes", 0)
    metrics["solver.us_per_node"] = (1e6 * ratio(untraced_wall, nodes), "us/node")
    metrics["trace.overhead"] = (
        median_wall(traced) / untraced_wall, "ratio")
    accounted = metrics["trace.accounted_frac"][0]
    ok = abs(accounted - 1.0) <= ACCOUNTED_TOLERANCE
    notes = {"untraced_wall_s": [round(p.wall_s, 4) for p in untraced],
             "traced_wall_s": [round(p.wall_s, 4) for p in traced]}
    return untraced + traced, metrics, notes, ok


def layer_metrics(sp: dict, check_ids: spans.Span, p: Pass) -> dict:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``sp`` holds the spans of the timed calls; ``check_ids`` the span of
    the verification that follows them."""
    t = p.totals
    cases = t.get("cases", {})
    leaves = t.get("leaves", 0)
    m = {"solver.leaves": (leaves, "count"),
         "solver.max_depth": (t.get("max_depth", 0), "count")}
    for case in CASE_IDS:
        m[f"solver.case.{case}"] = (cases.get(case, 0), "count")
    m["solver.dead_leaf_frac"] = (ratio(cases.get(1, 0), leaves), "ratio")
    m["solver.us_per_node"] = (0.0, "us/node")  # set from the untraced passes
    m["solver.self_s"] = (sp["solver.solve"].self_s, "s")

    fc = sp["graph.free_components"]
    m["graph.free_components.calls"] = (fc.calls, "count")
    m["graph.free_components.self_s"] = (fc.self_s, "s")
    m["graph.free_components.per_node"] = (ratio(fc.calls, t.get("nodes", 0)), "calls/node")
    for name in ("graph.classify_component", "graph.induced"):
        m[f"{name}.calls"] = (sp[name].calls, "count")
        m[f"{name}.self_s"] = (sp[name].self_s, "s")

    scu = sp["csp.solve_clique_union"]
    subinstances = sp["csp.split_to_binary"].counted
    binary = sp["csp.solve_binary"]
    m["csp.solve_clique_union.calls"] = (scu.calls, "count")
    m["csp.solve_clique_union.total_s"] = (scu.total_s, "s")
    m["csp.solve_clique_union.self_s"] = (scu.self_s, "s")
    m["csp.encode.self_s"] = (sp["csp.encode"].self_s, "s")
    m["csp.split_to_binary.self_s"] = (sp["csp.split_to_binary"].self_s, "s")
    m["csp.subinstances"] = (subinstances, "count")
    m["csp.solve_binary.calls"] = (binary.calls, "count")
    m["csp.solve_binary.self_s"] = (binary.self_s, "s")
    m["csp.solve_yield"] = (ratio(binary.calls, subinstances), "ratio")
    m["csp.infeasible_frac"] = (ratio(scu.counted, scu.calls), "ratio")

    m["analysis.optimize_weights.total_s"] = (sp["analysis.optimize_weights"].total_s, "s")
    for name in ("analysis.audit_weights", "analysis.branching_factor"):
        m[f"{name}.calls"] = (sp[name].calls, "count")
        m[f"{name}.self_s"] = (sp[name].self_s, "s")

    m["oracle.check_ids.self_s"] = (check_ids.self_s, "s")
    m["trace.overhead"] = (0.0, "ratio")  # set from both kinds of pass
    # every traced call inside the timed calls, against their time
    m["trace.accounted_frac"] = (ratio(sum(s.self_s for s in sp.values()), p.wall_s), "ratio")
    return m


def fingerprint_lines(p: Pass) -> list:
    records = [json.dumps(p.fingerprints[k], sort_keys=True) for k in sorted(p.fingerprints)]
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    return [f"fingerprint {r}" for r in records] + [f"fingerprint_sha256 {digest}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "midsolve" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'midsolve'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        expected = wl.load_expected()
        if args.workload == wl.WEIGHT_OPTIMIZE:
            run = WeightRun(args.seed, expected)
        else:
            run = SolveRun(args.workload, args.seed, expected)
        passes, metrics, notes, ok = (run_traced if args.trace else run_untraced)(
            run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("properties " + json.dumps(run.properties(), sort_keys=True))
    print("run " + json.dumps(notes, sort_keys=True))
    for line in fingerprint_lines(passes[0]):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0 and ok,
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
