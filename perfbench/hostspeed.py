"""Host-speed probe: a fixed piece of work timed between repetitions.

The benchmark runs on shared hosts whose speed changes under the load of
other tenants: on a 2-vCPU virtual machine the same repetition took anywhere
from 1x to 2x its fastest time, in spells lasting seconds to minutes, so a
median over one run follows the host rather than the program.  The probe
does the three kinds of work the workloads do (interpreter dispatch, small
numpy calls, memory traffic).  A Clock runs it at the boundaries of a
repetition's segments (set-up, then the parts of the solve phase), outside
the timed segments; a segment's time multiplied by REFERENCE_S / (mean of the
probe times before and after it) is the time it would have taken with the
host at its reference speed.  The benchmark reports these normalised times,
and prints the unscaled ones and the probe times beside them.  The probe is part of the benchmark, not of
helmdd, so a change to helmdd moves the normalised times as it moves the
unscaled ones.
"""

import statistics
import time

import numpy as np

# the probe's time on an unloaded host, rounded: the fastest probes on a
# 2-vCPU virtual machine (x86-64, numpy 2.4) took about 0.04 s.  It only sets
# the scale of the normalised times; changing it rescales all of them, so keep
# it fixed across commits that are compared
REFERENCE_S = 0.04

_BIG = np.ones(2_000_000)
_SMALL = np.ones(50)


def probe():
    """Seconds taken by the fixed probe work."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    for _ in range(16_000):
        _SMALL.dot(_SMALL)
    for _ in range(6):
        _BIG.copy()
    return time.perf_counter() - t0


class Clock:
    """Times the segments of one repetition: set-up, then the solve phase's.

    With probed=True the probe runs at start() and at every lap(), outside
    the timed segments."""

    def __init__(self, probed=False):
        self.probed = probed
        self.segments = []
        self.probes = []
        self._start = None

    def _mark(self):
        if self.probed:
            self.probes.append(probe())
        self._start = time.perf_counter()

    def start(self):
        self._mark()

    def lap(self):
        """End the current segment and start the next."""
        self.segments.append(time.perf_counter() - self._start)
        self._mark()

    def normalised(self):
        """Each segment's time at the reference host speed, or None unprobed."""
        if not self.probed:
            return None
        return [t * REFERENCE_S / statistics.mean(self.probes[i:i + 2])
                for i, t in enumerate(self.segments)]
