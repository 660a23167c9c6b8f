"""Per-layer spans for the traced run, patched in from outside the package.

Each traced function is replaced, at every attribute through which a caller
looks it up, by a wrapper that times the call and charges its duration to
the enclosing traced call.  A span's self time is its duration minus the
time of the traced calls it made.  Spans are aggregated per name in memory
(calls, total time, self time and one result count) and the originals are
put back when the ``with`` block ends.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counted: int = 0  # summed over results by the target's ``count``


@dataclass(frozen=True)
class Target:
    """``owner.attr`` is traced as ``name``; ``count(result)`` is added to
    the span's ``counted`` field when given."""

    name: str
    owner: object  # module or class
    attr: str
    count: Optional[Callable] = None


def targets(mods) -> list:
    """The cross-layer functions of midsolve that the traced run wraps."""
    graph = mods.graph.MarkedGraph
    return [
        Target("solver.solve", mods.solver, "solve"),
        Target("graph.free_components", graph, "free_components"),
        Target("graph.classify_component", graph, "classify_component"),
        Target("graph.induced", graph, "induced"),
        Target("csp.solve_clique_union", mods.csp, "solve_clique_union",
               lambda sol: 0 if sol.feasible else 1),
        Target("csp.encode", mods.csp, "encode"),
        Target("csp.split_to_binary", mods.csp, "split_to_binary", len),
        Target("csp.solve_binary", mods.csp, "solve_binary"),
        Target("analysis.optimize_weights", mods.analysis, "optimize_weights"),
        Target("analysis.audit_weights", mods.analysis, "audit_weights"),
        Target("analysis.branching_factor", mods.analysis, "branching_factor"),
        Target("oracle.check_ids", mods.oracle, "check_ids"),
    ]


PACKAGE = "midsolve"
UNTRACED_MODULES = ("midsolve.cli",)  # not a layer of the benchmark


class Tracer:
    """Context manager that wraps the targets and restores them on exit.

    A module-level function is replaced in every module of the package
    (except the CLI) that binds it under any name, so both
    ``csp.solve_clique_union`` looked up through the module and ``solve``
    imported by name into ``lb_trace`` are traced.  Methods are replaced
    on their class.
    """

    def __init__(self, targets: list):
        self.targets = targets
        self.spans = {t.name: Span() for t in targets}
        self._stack: list = []  # traced child time of each open span
        self._patched: list = []  # (namespace owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            for t in self.targets:
                self._patch(t)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _patch(self, t: Target) -> None:
        if isinstance(t.owner, type):
            original = t.owner.__dict__[t.attr]
            sites = [(t.owner, t.attr)]
        else:
            original = getattr(t.owner, t.attr)
            sites = [(mod, name)
                     for mod_name, mod in sorted(sys.modules.items())
                     if (mod_name == PACKAGE or mod_name.startswith(PACKAGE + "."))
                     and mod_name not in UNTRACED_MODULES
                     for name, value in sorted(vars(mod).items())
                     if value is original]
        wrapper = self._wrap(self.spans[t.name], original, t.count)
        for owner, name in sites:
            setattr(owner, name, wrapper)
            self._patched.append((owner, name, original))

    def _restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
            if vars(owner)[name] is not original:
                raise RuntimeError(f"could not restore {owner!r}.{name}")

    def _wrap(self, span: Span, fn: Callable, count: Optional[Callable]) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - child
            if count is not None:
                span.counted += count(result)
            return result

        return traced
