"""Machine-speed probe: the benchmark's times, scaled to a fixed machine speed.

The benchmark runs on a shared host whose speed swings by up to about 1.5
times within seconds; CPU time swings just as much, so no averaging inside a
run of a minute removes it.  The probe measures that speed while the workload
runs: every ``INTERVAL_S`` seconds of wall time a timer signal interrupts the
workload and runs ``reference``, a fixed piece of pure-Python work of the same
kind as finheyt's (tuple-keyed dicts, sets, small calls), and records how long
it took.

``clock`` is ``perf_counter`` minus the time spent in the probe, so the probe
never counts towards an operation or a span.  ``scaled`` turns a stretch of
``clock`` time into seconds at the nominal speed, the speed at which
``reference`` takes ``NOMINAL_S``: each piece of the stretch between two
samples is multiplied by ``NOMINAL_S`` over the reference time there, smoothed
as the median of ``SMOOTH_SAMPLES`` samples (about a third of a second), so
that one interrupted sample does not count.

The reference never calls finheyt, so a change to the program cannot change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
NOMINAL_S = 0.001
SMOOTH_SAMPLES = 7


def reference() -> int:
    """A fixed amount of interpreter work, about a millisecond on a 2020s server core."""
    n = 9
    total = 0
    for shift in range(12):
        table = {(a, b): (a * b + shift) % n for a in range(n) for b in range(n)}
        up = {a: frozenset(b for b in range(n) if table[a, b] >= a) for a in range(n)}
        for a in range(n):
            row = [table[a, b] for b in range(n)]
            total += max(row) + len(up[a] & up[row[a]])
        pairs = sorted((v, k) for k, v in table.items())
        total += pairs[len(pairs) // 2][0] + sum(map(len, up.values()))
    return total


class Probe:
    """Samples the machine's speed on a timer signal for the life of one process."""

    def __init__(self):
        self.times: list[float] = []  # clock() at each sample
        self.refs: list[float] = []  # seconds the reference took
        self.spent = 0.0
        self._smooth: list[float] = []

    def start(self) -> None:
        reference()  # the first call of a fresh process runs cold; keep it out
        self._sample()
        signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self) -> None:
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.times.append(t0 - self.spent)
        self.refs.append(t1 - t0)
        self.spent += t1 - t0

    def clock(self) -> float:
        """perf_counter() less the time spent in the probe so far."""
        while True:
            spent = self.spent
            now = perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def _smoothed(self) -> list[float]:
        """Each sample's reference time, as the median of the samples around it."""
        refs, k = self.refs, SMOOTH_SAMPLES // 2
        if len(self._smooth) != len(refs):
            self._smooth = [statistics.median(refs[max(0, i - k):i + k + 1])
                            for i in range(len(refs))]
        return self._smooth

    def scaled(self, start: float, end: float) -> float:
        """Seconds of clock time in [start, end], at the nominal speed.

        The samples inside the stretch cut it into pieces; each piece is scaled
        by the smoothed reference time of the samples at its two ends (of the
        nearest sample for a piece at an end of the recording).
        """
        times, smooth = self.times, self._smoothed()
        lo = bisect.bisect_right(times, start)
        hi = bisect.bisect_left(times, end)
        points = [start, *times[lo:hi], end]
        last = len(times) - 1
        total = 0.0
        for i in range(len(points) - 1):
            before, after = min(max(lo + i - 1, 0), last), min(lo + i, last)
            ref = (smooth[before] + smooth[after]) / 2
            total += (points[i + 1] - points[i]) * NOMINAL_S / ref
        return total
