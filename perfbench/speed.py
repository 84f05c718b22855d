"""The machine's speed during a run, measured by a fixed reference loop.

The benchmark shares a host whose speed drifts by tens of percent over
minutes, as other tenants come and go.  A run cannot average that drift
away, so it measures it instead: between ops, outside every timed call, it
times a fixed pure-Python loop about five times a second.  The loop's
mean time over the run, against REFERENCE_S, gives the run's speed.  The
mean, not the median: the host switches between a fast and a slow state
about 2x apart, and an op's time grows with the share of the run spent in
the slow state, which the mean follows in proportion and the median does
not.

Each reported time is the measured time scaled to a machine on which the
loop takes exactly REFERENCE_S ("reference speed"); a run on such a
machine reports its times unchanged.

The loop does the kinds of work the package does: small- and big-integer
arithmetic, dict and tuple traffic, and Python-level calls.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.004  # about the loop's time on the 2-vCPU VM the bounds were set on
EVERY_S = 0.2


def _step(x, i):
    return (x * 6364136223846793005 + i) % 340282366920938463463374607431768211507


def reference_loop() -> int:
    table = {}
    x = 1
    for i in range(6000):
        x = _step(x, i)
        key = x & 255
        table[key] = (table.get(key, (0, 0))[1], i)
    return len(table)


class Speed:
    """Reference-loop timings taken at least EVERY_S apart."""

    def __init__(self):
        self.samples: list[float] = []
        self._next = 0.0

    def maybe_sample(self):
        now = time.perf_counter()
        if now >= self._next:
            reference_loop()
            self.samples.append(time.perf_counter() - now)
            self._next = time.perf_counter() + EVERY_S

    def scale(self) -> float:
        """Reference-speed time per measured time (1 at reference speed)."""
        return REFERENCE_S / statistics.fmean(self.samples)
