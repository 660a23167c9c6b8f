"""Smoke tests of the benchmark: one pass each of the search-plain and
clique-endgame workloads with every cross-module target wrapped by name,
and one untraced pass each of the search-marked, clique-endgame and
weight-optimize workloads, whose results the harness checks against its
frozen answers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_search_plain_run_is_correct():
    assert run_bench("search-plain", 1)["correct"] is True


def test_search_marked_run_is_correct():
    # 40 marked instances: the marked-vertex term of the search's lower
    # bound checked end to end against the frozen sizes, and every witness
    # with check_ids
    assert run_bench("search-marked", 0)["correct"] is True


def test_clique_endgame_run_is_correct():
    # marked clique unions, feasible and infeasible: each solve is one CSP
    # endgame node, checked against the frozen sizes and with check_ids
    assert run_bench("clique-endgame", 0)["correct"] is True


def test_traced_clique_endgame_run_is_correct():
    # the same instances with the csp layer traced: the wrappers count the
    # endgame's solve_binary calls and must not turn a solve into a failure
    assert run_bench("clique-endgame", 1)["correct"] is True


def test_weight_optimize_run_is_correct():
    # optimize_weights and the reference audit: the analysis layer end to
    # end, checked against the frozen weights and reference factor
    assert run_bench("weight-optimize", 0)["correct"] is True
