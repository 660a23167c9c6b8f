"""Host-speed probe: a fixed piece of the benchmark's own work whose
duration tracks how fast the machine runs at the moment it is taken.

On a shared virtual machine the speed of identical, deterministic work
moves by a factor of up to two over minutes, and by ±20 % between
two-second windows, for reasons outside the process (CPU time tracks wall
time, so it is not steal).  While a pass runs, a ``Sampler`` takes a probe
at a fixed period from a timer signal, so the probes land inside the timed
calls as much as between them.  Their time is taken out of the calls'
time, and the pass's time is divided by its speed factor, the mean probe
time over ``REFERENCE_S``.  What is left is the pass's time on a host that
runs the probe in ``REFERENCE_S``: "reference seconds".  The probe never
calls midsolve, so a change to the package changes the call times and not
the factor.

The probe is plain interpreter work (a float bisection).  A probe that also
walked sets on a small graph tracked the search workloads a little better
but the allocation-heavy CSP endgame much worse: the pass-to-pass spread of
normalized ``clique-endgame`` time was 0.09 with it against 0.04 without.
"""

from __future__ import annotations

import signal
import time

#: About the median probe time on the baseline host (2-vCPU VM, Intel Xeon
#: 2.1 GHz, CPython 3.11.7; 0.55-1.2 ms as the host's speed moved).  It only
#: fixes the unit of the normalized times: never change it, or results taken
#: before and after the change disagree.
REFERENCE_S = 0.0008

#: Wall time between the end of one probe and the start of the next.
PERIOD_S = 0.01

_DELTAS = ((1.0, 2.5, 3.25), (2.0, 2.0, 4.5, 5.0), (1.5, 3.0))


def _work() -> float:
    """Bisection for the root of sum(tau ** -d) = 1, as in the weight
    analysis: interpreter-bound, with hardly any memory traffic."""
    tau = 0.0
    for scale in range(1, 8):
        for deltas in _DELTAS:
            lo, hi = 1.0 + 1e-12, 64.0
            while hi - lo > 1e-9:
                mid = (lo + hi) / 2
                if sum(mid ** -(d * scale / 4) for d in deltas) > 1.0:
                    lo = mid
                else:
                    hi = mid
            tau += lo
    return tau


def probe() -> float:
    """Run the probe once; its duration in seconds."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start


class Sampler:
    """Context manager that probes every ``PERIOD_S`` from a SIGALRM handler.

    ``intervals`` holds the (start, end) clock readings of every probe, so
    that ``spent(start, end)`` can take their time out of a call timed from
    ``start`` to ``end``.  The timer is one-shot and re-armed at the end of
    the handler, so probes never nest.
    """

    def __init__(self, period: float = PERIOD_S):
        self.period = period
        self.intervals: list = []
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.period)
        self.intervals.append((start, end))

    def probes(self) -> list:
        return [end - start for start, end in self.intervals]

    def spent(self, start: float, end: float) -> float:
        """Probe time that lies between the clock readings start and end."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.intervals)
