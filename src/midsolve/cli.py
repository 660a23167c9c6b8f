"""Command-line interface.

Subcommands: solve, oracle, analyze, lbtrace, bench.  Exit codes: 0 found,
1 a failed check (``solve --check`` rejects the witness, the two
reference routes of ``oracle``, both run on plain and marked instances
alike, disagree on the size, or a structural claim of ``lbtrace`` fails at
some l), 2 usage or parse error, an instance with
more free vertices than ``oracle``'s exhaustive route takes, or an
instance outside the solver's input contract (a marked vertex with more
than 4 free neighbors), 3 infeasible.  With ``--format records`` output is
line-delimited ``mids.v1 key=value ...`` records; wall-clock fields are the
only nondeterministic columns and always carry the ``wall_ms`` key.
"""

from __future__ import annotations

import argparse
import sys
import time
from concurrent.futures import ProcessPoolExecutor

from .analysis import (REFERENCE_WEIGHTS, WeightVector, audit_weights,
                       branching_factor, optimize_weights, recurrence_catalog)
from .instances import (InstanceFormatError, gen_random, mark_random,
                        read_graph)
from .lb_trace import growth_rows, trace
from .oracle import (OracleError, check_ids, exhaustive_mids,
                     mis_enumeration_mids)
from .solver import PRUNED, SolverError, solve

SCHEMA = "mids.v1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _record(**fields) -> str:
    return SCHEMA + " " + " ".join(f"{k}={v}" for k, v in fields.items())


def _load(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return read_graph(fh.read())
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except (InstanceFormatError, UnicodeDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt_witness(sol) -> str:
    return ",".join(map(str, sorted(sol.witness))) if sol.feasible else "-"


def cmd_solve(args) -> int:
    g = _load(args.instance)
    start = time.perf_counter()
    try:
        sol, stats = solve(g, assert_mode=args.assert_mode)
    except SolverError as exc:
        print(f"error: {args.instance}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    wall_ms = (time.perf_counter() - start) * 1e3
    size = sol.size if sol.feasible else "infeasible"
    if args.format == "records":
        print(_record(cmd="solve", instance=args.instance, size=size,
                      witness=_fmt_witness(sol), nodes=stats.nodes,
                      leaves=stats.leaves, max_depth=stats.max_depth,
                      pruned=stats.case_counts.get(PRUNED, 0),
                      wall_ms=f"{wall_ms:.1f}"))
    else:
        print(f"instance: {args.instance}")
        print(f"size: {size}")
        print(f"witness: {_fmt_witness(sol)}")
        print(f"nodes: {stats.nodes}  leaves: {stats.leaves}  "
              f"max_depth: {stats.max_depth}")
        cases = " ".join(f"{k}:{v}" for k, v in sorted(stats.case_counts.items(), key=str))
        print(f"cases: {cases}")
        print(f"wall_ms: {wall_ms:.1f}")
    if args.check and sol.feasible:
        if not check_ids(g, sol.witness):
            print("validation: FAILED", file=sys.stderr)
            return EXIT_CHECK_FAILED
        print("validation: witness passes independent-domination check")
    return EXIT_OK if sol.feasible else EXIT_INFEASIBLE


def cmd_oracle(args) -> int:
    g = _load(args.instance)
    try:
        exh = exhaustive_mids(g)
    except OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"exhaustive: {exh!r}")
    mis = mis_enumeration_mids(g)
    print(f"mis-enumeration: {mis!r}")
    agree = mis.size == exh.size
    print(f"agreement: {'yes' if agree else 'NO'}")
    if not agree:
        return EXIT_CHECK_FAILED
    return EXIT_OK if exh.feasible else EXIT_INFEASIBLE


def cmd_analyze(args) -> int:
    weights = args.weights if args.weights else REFERENCE_WEIGHTS
    catalog = recurrence_catalog()
    print(f"weights: w1={weights.w1} w2={weights.w2}")
    for r in catalog:
        tau = branching_factor(r, weights)
        print(f"  {r.label:<12} branches={len(r.branches)}  factor={tau:.6f}")
    max_factor, worst = audit_weights(weights, catalog)
    print(f"max factor: {max_factor:.6f}")
    print(f"worst cases: {', '.join(worst)}")
    if args.optimize:
        best = optimize_weights(catalog)
        best_factor, _ = audit_weights(best, catalog)
        print(f"optimized: w1={best.w1} w2={best.w2} max factor {best_factor:.6f}")
    return EXIT_OK


def cmd_lbtrace(args) -> int:
    if not 3 <= args.l_min < args.l_max:
        print("error: need 3 <= L_MIN < L_MAX", file=sys.stderr)
        return EXIT_USAGE
    leaves = []
    claims_hold = True
    for l in range(args.l_min, args.l_max + 1):
        rep = trace(l)
        leaves.append(rep.leaves)
        claims_hold &= (rep.case9_only_above_4 and rep.candidate_shapes_ok
                        and rep.child_removals_ok)
        print(_record(cmd="lbtrace", l=l, nodes=rep.nodes, leaves=rep.leaves,
                      case9_only=rep.case9_only_above_4,
                      shapes_ok=rep.candidate_shapes_ok,
                      removals_ok=rep.child_removals_ok))
    print("leaf growth:")
    for l, n, ratio in growth_rows(args.l_min, leaves):
        ratio = "-" if ratio is None else f"{ratio:.4f}"
        print(f"  l={l:<3} leaves={n:<8} ratio={ratio}")
    return EXIT_OK if claims_hold else EXIT_CHECK_FAILED


def _bench_one(params):
    n, p, seed, mark_fraction = params
    g = gen_random(n, p, seed)
    if mark_fraction:
        g = mark_random(g, mark_fraction, seed + 1)
    start = time.perf_counter()
    sol, stats = solve(g)
    wall_ms = (time.perf_counter() - start) * 1e3
    return (seed, sol.size if sol.feasible else "infeasible",
            stats.nodes, stats.leaves, wall_ms)


def cmd_bench(args) -> int:
    params = [(args.n, args.p, args.seed + i, args.mark_fraction)
              for i in range(args.count)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, params))
    else:
        rows = [_bench_one(p) for p in params]
    rows.sort(key=lambda r: r[0])  # by instance seed regardless of completion
    for seed, size, nodes, leaves, wall_ms in rows:
        if args.format == "records":
            print(_record(cmd="bench", n=args.n, p=args.p, seed=seed, size=size,
                          nodes=nodes, leaves=leaves, wall_ms=f"{wall_ms:.1f}"))
        else:
            print(f"seed={seed} size={size} nodes={nodes} leaves={leaves} "
                  f"wall_ms={wall_ms:.1f}")
    return EXIT_OK


def _parse_weights(text: str) -> WeightVector:
    try:
        w1, w2 = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected --weights w1,w2") from None
    w = WeightVector(w1, w2)
    if not w.is_admissible():
        raise argparse.ArgumentTypeError(f"weights ({w1}, {w2}) are not admissible")
    return w


def _probability(text: str) -> float:
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not 0.0 <= p <= 1.0:
        raise argparse.ArgumentTypeError(f"{text} is outside [0, 1]")
    return p


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{text} is below {low}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mids", description="Exact minimum independent dominating set solver.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--check", action="store_true",
                         help="re-validate the witness")
    p_solve.add_argument("--assert", dest="assert_mode", action="store_true",
                         help="enable per-node invariant checks")
    p_solve.add_argument("--format", choices=("text", "records"), default="text")
    p_solve.set_defaults(func=cmd_solve)

    p_oracle = sub.add_parser("oracle", help="run the reference solvers")
    p_oracle.add_argument("instance")
    p_oracle.set_defaults(func=cmd_oracle)

    p_an = sub.add_parser("analyze", help="audit the recurrence catalog")
    p_an.add_argument("--weights", type=_parse_weights, default=None)
    p_an.add_argument("--optimize", action="store_true",
                      help="also run the weight optimizer")
    p_an.set_defaults(func=cmd_analyze)

    p_lb = sub.add_parser("lbtrace", help="trace the lower-bound family")
    p_lb.add_argument("l_min", type=int)
    p_lb.add_argument("l_max", type=int)
    p_lb.set_defaults(func=cmd_lbtrace)

    p_bench = sub.add_parser("bench", help="solve a generated corpus")
    p_bench.add_argument("--n", type=_int_at_least(0), default=30)
    p_bench.add_argument("--p", type=_probability, default=0.2)
    p_bench.add_argument("--count", type=_int_at_least(0), default=5)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--mark-fraction", type=_probability, default=0.0)
    p_bench.add_argument("--jobs", type=_int_at_least(1), default=1)
    p_bench.add_argument("--format", choices=("text", "records"), default="records")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)  # argparse exits 2 on usage errors
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
