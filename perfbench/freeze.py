"""Write ``expected.json``: the frozen answers the benchmark checks against.

    python3 perfbench/freeze.py

Solves every pool member of every instance family in ``workloads.py`` and
runs the weight optimizer once, recording what the solver returned.  Each
instance is solved a second time under a profile hook that counts the
Python function calls the solve makes: a deterministic measure of its work,
by which ``workloads.select`` orders a pool where node counts tie (every
clique-union instance is one node).  The file was written once, from the
commit that introduced the benchmark, and is the reference for every later
commit: rewriting it from a later commit would make the benchmark check a
program against itself.  Run it again only when a family or pool is added,
and check that the old entries are unchanged.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def count_calls(fn, *args) -> int:
    """Python function calls made while fn(*args) runs."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    mods = run.import_layers()
    instances = {}
    for fam in wl.FAMILIES:
        for s in fam.pool:
            g = fam.build(mods, s)
            sol, stats = mods.solver.solve(g)
            if sol.feasible and not mods.oracle.check_ids(g, sol.witness):
                raise run.BenchError(f"{fam.instance_id(s)}: witness fails check_ids")
            instances[fam.instance_id(s)] = {
                "size": sol.size,
                "witness": sorted(sol.witness) if sol.feasible else None,
                "nodes": stats.nodes,
                "leaves": stats.leaves,
                "free": len(g.free),
                "marked": len(g.marked),
                "edges": g.edge_count(),
                "calls": count_calls(mods.solver.solve, g),
            }
            print(fam.instance_id(s), instances[fam.instance_id(s)]["size"],
                  stats.nodes, flush=True)
    catalog = mods.analysis.recurrence_catalog()
    weights = mods.analysis.optimize_weights(catalog)
    reference = mods.analysis.audit_weights(mods.analysis.REFERENCE_WEIGHTS, catalog)
    frozen = {
        "instances": instances,
        "weight_optimize": {"weights": [weights.w1, weights.w2],
                            "reference_factor": reference[0]},
    }
    with open(wl.EXPECTED_PATH, "w") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
