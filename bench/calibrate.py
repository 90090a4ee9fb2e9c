"""How fast the host runs, sampled around and during every job.

The benchmark runs on shared virtual machines whose cores switch, many
times a second, between full speed and about 1.5x slower (most likely
another tenant on the same physical core), and the share of slow time
drifts over minutes.  Two runs of the same code minutes apart can then
differ by more than any useful regression bound.  So each pass is pinned
to one CPU (``run.py``) and a fixed reference kernel is timed on that
CPU: a few times between jobs, and every ``INTERVAL_S`` during set-up and
during a job from a ``SIGALRM`` handler.  A job's mean kernel time
against ``REFERENCE_S`` says how much slower than the reference the host
ran during that job; ``run.py`` scales the job's latency by it.

The kernel does not touch cyclezeta, so a change to the program cannot
change it.  It mixes the three kinds of work the workloads do: small-int
modular arithmetic with dict and tuple traffic (finite fields, orbits),
big-integer products (exact series) and numpy elementwise passes over
doubles (quadrature grids).
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# fastest kernel time on the reference host (2-vCPU x86_64 VM, Intel Xeon
# at 2.0 GHz, Python 3.11.7, numpy 2.4.6)
REFERENCE_S = 2.5e-4
INTERVAL_S = 0.05
BETWEEN = 3  # kernel samples taken between two jobs

_MOD = 7 ** 600
_GRID = np.linspace(0.0, 6.0, 1024)


def kernel() -> int:
    s, table = 1, {}
    for i in range(700):
        s = (s * 31 + i) % 1000003
        table[(i & 63, s & 7)] = s
    x = 3 ** 800
    for _ in range(4):
        x = x * x % _MOD
    a = _GRID
    for _ in range(4):
        a = np.log1p(np.abs(np.sin(a)))
    return s + len(table) + (x & 1) + int(a[0])


class Sampler:
    """Kernel samples ``(end time, seconds)`` in ``perf_counter`` time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _sample(self, *_):
        t = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - t))

    def between(self):
        for _ in range(BETWEEN):
            self._sample()

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start, end):
        """(mean kernel seconds, seconds spent sampling) for a job that ran
        from ``start`` to ``end``: the samples taken during it and the ones
        just before and after it."""
        inside = [d for t, d in self.samples if start < t <= end]
        before = [d for t, d in self.samples if t <= start][-BETWEEN:]
        after = [d for t, d in self.samples if t > end][:BETWEEN]
        return statistics.fmean(before + inside + after), sum(inside)
