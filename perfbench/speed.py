"""A meter for the current speed of the core the benchmark runs on.

On a shared machine the core slows by up to half for seconds to minutes at a
time, while another tenant loads it; wall and CPU time both stretch, and no
hardware counter is exposed. The meter runs a fixed pure-Python calibration
loop from a timer signal every ``INTERVAL_S`` seconds and records how long it
took. Dividing a timed interval by the loop's mean time inside it, times
``REFERENCE_LOOP_S``, gives the interval in seconds at a fixed reference
speed; the loop's own time is subtracted first.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

INTERVAL_S = 0.1
# the calibration loop's time on an unloaded core of the machine the
# benchmark was defined on (Intel Xeon, 2 vCPUs); a unit, not a target
REFERENCE_LOOP_S = 1.2e-3


def calibration_loop():
    total = 0.0
    table = {}
    values = [0.5] * 16
    for i in range(8000):
        total += math.sqrt(i + 1.0) * values[i & 15]
        table[i & 63] = total
        values[i & 15] = total * 1e-9
    return total


class SpeedMeter:
    """Records (start, duration) of the calibration loop while running."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        calibration_loop()
        self.samples.append((t0, perf_counter() - t0))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, t0, t1, *durations):
        """Scale ``durations`` measured in [t0, t1] to the reference speed.

        Returns the scaled durations, each less the loop time inside the
        window, and the window's slowdown (mean loop time / reference).
        """
        inside = [d for start, d in self.samples if t0 <= start < t1]
        # a window shorter than the interval has no sample: use the run's
        loops = inside or [d for _, d in self.samples]
        slowdown = sum(loops) / len(loops) / REFERENCE_LOOP_S
        spent = sum(inside)
        return [(d - spent) / slowdown for d in durations], slowdown
