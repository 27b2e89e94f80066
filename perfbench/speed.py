"""The host's speed, measured next to the jobs, and times scaled by it.

On a Linux VM with 2 vCPUs shared with other tenants, the same
pure-Python code runs up to 1.8 times slower for tens of seconds or
minutes at a time.  A fixed reference loop, independent of lensknots, is
timed between jobs (about every 25 ms of program time), and each job's
latency is divided by the median reference time of the probes around it.
On that VM, over one minute in which the reference time moved by a factor
of 1.8, the latency of a fixed verify, mcg and enum-graphs job over the
local reference time moved by at most 10%, 16% and 16% (medians over
4-second stretches).

Scaled times are reported in seconds on a nominal machine, one on which
the reference loop takes REF_S.  The reference runs no lensknots code,
runs between jobs, and runs with the garbage collector off, so it does
not pay for the program's live objects.  A change to lensknots leaves
its time alone unless the change leaves work running between jobs.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

REF_S = 0.001         # the reference loop's time on the nominal machine
PROBE_EVERY_S = 0.025  # program time between two reference probes
WINDOW = 4            # probes on each side of a job that set its speed


def reference():
    """Interpreter-bound work like the program's: Euclid on big integers,
    dict and tuple traffic, string rotations."""
    acc = 0
    d = {}
    for i in range(300):
        a, b = 10**30 + 7 * i, 10**20 + 3 * i
        while b:
            a, b = b, a % b
        d[i % 64] = (a, i)
        acc += a
    s = "RL" * 80
    return acc, min(s[i:] + s[:i] for i in range(len(s)))


def probe():
    """Seconds one run of the reference loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Probes taken between jobs; scales a job by the probes around it."""

    def __init__(self, every_s=PROBE_EVERY_S):
        self.every_s = every_s
        self.probes = []
        self.since = float("inf")  # program time since the last probe

    def before_job(self):
        """Probe if the program ran every_s since the last probe; returns
        the index of the next probe, which marks where the job ran."""
        if self.since >= self.every_s:
            self.probes.append(probe())
            self.since = 0.0
        return len(self.probes)

    def after_job(self, latency):
        self.since += latency

    def local(self, mark):
        """Median reference time of the WINDOW probes on each side of mark."""
        return statistics.median(self.probes[max(0, mark - WINDOW):mark + WINDOW])

    def scale(self, latency, mark):
        """latency in seconds on the nominal machine."""
        return latency * REF_S / self.local(mark)

    def median(self):
        return statistics.median(self.probes)
