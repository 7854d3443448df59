"""Host-speed correction of the benchmark's end-to-end timings.

The benchmark shares a few cores of a host with other tenants.  On such a
host the whole vCPU runs slower for stretches of a fraction of a second to
minutes: pure-Python work of every kind (Groebner division, identity checks,
involution enumeration) then takes about 1.7 times as long, and how much of
a run falls in slow stretches changes from run to run.  Plain wall seconds
therefore spread by far more than any change worth detecting.

``SpeedClock`` measures the host's speed while the workload runs.  A
``SIGALRM`` timer interrupts the benchmark every ``SAMPLE_EVERY_S`` and the
handler times a fixed reference computation (``reference``) of the benchmark's
own, on the same CPU, between two bytecodes of the workload.  Each stretch of
workload between two samples is then rescaled by the speed measured at its
end:

    reference seconds = wall seconds * REF_NOMINAL_S / reference time

so the result is the time the work would take on a host that runs the
reference in ``REF_NOMINAL_S``.  Sample time is not counted as workload time.
The reference never calls symgb, so a change to the library moves the
workload's reference seconds and not the reference.
"""

from __future__ import annotations

import signal
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter
from typing import List, Tuple

# reference time at nominal speed, a fixed scale: on a 2-vCPU Intel Xeon VM
# (Python 3.11) the reference took about 0.5 ms in the host's fast state and
# 0.85 ms in its slow state
REF_NOMINAL_S = 0.0006
SAMPLE_EVERY_S = 0.1
REF_REPEATS = 3

_A = {(i, 3 - i % 4, i % 3, i % 5): Fraction(10**12 * (i + 1), 7 - i % 5)
      for i in range(12)}
_B = {(i % 2, i, 1, i % 3): Fraction(2 * i - 5, 10**12 * i + 1) for i in range(8)}


def reference() -> list:
    """Fixed pure-Python work shaped like sparse polynomial arithmetic:
    tuple exponents, dict merging of Fraction coefficients and a lex sort."""
    out: dict = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return sorted(out.items(), key=lambda t: t[0][::-1])


def time_reference() -> float:
    """Median of REF_REPEATS timings of ``reference``; the median drops a
    timing that a preemption or a page fault landed in."""
    times = []
    for _ in range(REF_REPEATS):
        t0 = perf_counter()
        reference()
        times.append(perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]


def wall(start: float, end: float) -> float:
    """Plain wall seconds; the clock used when speed is not corrected."""
    return end - start


class SpeedClock:
    """Context manager that samples host speed while it is open.

    ``seconds(start, end)`` converts a ``perf_counter`` interval inside the
    ``with`` block into reference seconds.  The timer and the previous
    ``SIGALRM`` handler are restored on exit.
    """

    def __init__(self, every_s: float = SAMPLE_EVERY_S):
        self.every_s = every_s
        # (start, end, reference seconds) of each sample, in time order
        self.samples: List[Tuple[float, float, float]] = []
        self._starts: List[float] = []
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:      # a signal that arrives inside a sample is dropped
            return
        self._busy = True
        try:
            t0 = perf_counter()
            ref = time_reference()
            self.samples.append((t0, perf_counter(), ref))
            self._starts.append(t0)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedClock":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the workload run between ``start`` and
        ``end``: sample time is left out and each stretch between samples
        is scaled by REF_NOMINAL_S / the reference time sampled at its end."""
        samples = self.samples
        i = bisect_left(self._starts, start)
        if i == 0:
            raise ValueError("interval is not inside the SpeedClock's with block")
        total = 0.0
        prev_end = samples[i - 1][1]
        while i < len(samples):
            s_start, s_end, ref = samples[i]
            lo, hi = max(start, prev_end), min(end, s_start)
            if hi > lo:
                total += (hi - lo) * REF_NOMINAL_S / ref
            if s_start >= end:
                return total
            prev_end = s_end
            i += 1
        raise ValueError("interval ends after the SpeedClock's last sample")
