"""A clock that runs at a reference machine speed.

The benchmark runs on a few cores of a shared host.  Other tenants slow a
core down by up to 1.6x, switching within a fraction of a second and
drifting over minutes, and the slowdown shows in CPU time as much as in wall
time.  So a raw timing says as much about the neighbours as about the code:
on the 2-core host this benchmark was written on, the median of 13
repetitions of one workload read 0.84 s in one run and 1.23 s in the next.

``SpeedProbe`` interrupts its process every ``PERIOD_S`` of wall time
(``SIGALRM``) and times ``kernel()``, a fixed pure-Python loop that owes
nothing to freqalloc, on the same core as the work, so its samples follow
the core's speed while the work runs.  ``clock()`` advances by the wall time
after each sample, up to the next, times REF_KERNEL_S / that sample's kernel
time: the time the same work takes at the speed at which the kernel runs in
``REF_KERNEL_S``.  The probe's own time is left out.  The probe costs about
1% of the run time.  On that host, with this clock, the quartile spread
over ten runs of each timing of each workload was at most 3.5% of the
median.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
# the kernel's time at the reference speed: about its fastest on the host
# the benchmark was written on (Xeon, 2 vCPUs, Python 3.11.7), where the
# slowed cores took 150 us
REF_KERNEL_S = 100e-6


def kernel() -> None:
    """Fixed work of the kind the program does: integer arithmetic and dict
    updates in interpreted Python."""
    d: dict[int, int] = {}
    x = 12345
    for i in range(400):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 511
        d[k] = d.get(k, 0) + i


class SpeedProbe:
    """Samples the core's speed while the process runs; see the module doc."""

    def __init__(self) -> None:
        # (reference seconds so far, perf_counter() at the end of the latest
        # sample, speed factor of the latest sample), replaced as one object
        # so that clock() never reads half an update
        self._state = (0.0, time.perf_counter(), 1.0)

    def _sample(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        ref, mark, speed = self._state
        self._state = (ref + (t0 - mark) * speed, t1, REF_KERNEL_S / (t1 - t0))

    def start(self) -> None:
        kernel()  # the first run of the kernel is slower than the rest
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """Reference seconds of work since the probe was made."""
        ref, mark, speed = self._state
        return ref + (time.perf_counter() - mark) * speed
