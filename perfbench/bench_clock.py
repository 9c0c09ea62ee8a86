"""Op timing in reference-speed seconds, for a machine whose speed drifts.

On a shared 2-core VM (2.1 GHz Xeon), a fixed pure-Python loop takes
anywhere from 1x to 1.9x its best time, in slow and fast phases that last
from seconds to tens of seconds. The medians of 14-second windows of such
a loop spread by 0.21 (IQR over median), so raw wall times of one op
spread as much from run to run. Repetition inside a 20-second run does not
remove that.

``SpeedClock`` samples the machine's speed while ops run. A real-time
interval timer interrupts the process every ``PERIOD_S``, and the signal
handler times a fixed probe loop. The handler runs in the main thread
between bytecodes, so no second thread or process adds load. An op's time
is its wall time minus the probes that ran inside it, scaled by
``REFERENCE_S / mean(probes within WINDOW_S of the op)``. That is the time
the op would take on a machine that runs the probe in ``REFERENCE_S``. A
change to the library cannot change the probe, so parent and change are
scaled alike. The probes cost about 3% of the run.
"""

from __future__ import annotations

import signal
import statistics
from bisect import bisect_left
from contextlib import contextmanager
from time import perf_counter

PERIOD_S = 0.5
# Probes this close to an op estimate the speed it ran at.
WINDOW_S = 2.0
# The probe's time on an unloaded core of the 2.1 GHz Xeon (fast phase).
REFERENCE_S = 0.015


def _probe_work() -> float:
    # Dict updates with float arithmetic, like the vectorizing kernels.
    acc: dict[int, float] = {}
    for i in range(100_000):
        k = i & 4095
        acc[k] = acc.get(k, 0.0) + i * 0.5
    return acc[0]


class SpeedClock:
    """Context manager that probes the machine's speed every PERIOD_S."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None
        self._running = False

    def _probe(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        _probe_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self) -> "SpeedClock":
        self._probe()
        self._previous_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._running = True
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._running = False

    @contextmanager
    def paused(self):
        """Probe before and after a burst of sub-millisecond ops instead of
        inside it: a probe evicts their data from the CPU caches, which
        would show in their tail latency."""
        if not self._running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe()
        try:
            yield
        finally:
            self._probe()
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end]."""
        lo = bisect_left(self.starts, start - WINDOW_S)
        hi = bisect_left(self.starts, end + WINDOW_S)
        inside = sum(d for s, d in zip(self.starts[lo:hi], self.durations[lo:hi])
                     if start <= s <= end)
        near = self.durations[lo:hi] or [self.durations[max(0, lo - 1)]]
        return (end - start - inside) * REFERENCE_S / statistics.mean(near)

    @property
    def median_probe(self) -> float:
        return statistics.median(self.durations)
