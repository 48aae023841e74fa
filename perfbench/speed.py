"""A probe of how fast this machine runs Python right now, sampled while a
pass runs, so that a pass's time can be given in units of the probe.

On a shared host the speed of a core drifts by a fifth or more over
minutes, with the load of other tenants; the pass time drifts with it, so
two sets of runs of the same code disagree.  The probe runs two small
fixed kernels, one of integer arithmetic and one of allocation, from a
SIGALRM handler every INTERVAL_S seconds while the pass runs, in turns,
and times each.  Both share the machine's speed of the moment with the
program but none of its code, so a change to infinigb moves the pass time
and not the probe.  Time-uniform samples of a kernel's rate (1 / its
time) average to the machine's mean speed over the pass, so

    wall_norm = (pass wall time - probe time) * geomean over kernels of mean(1 / kernel time)

is the pass's length in probe units: the kernels' geometric-mean time.
"""

from __future__ import annotations

import gc
import math
import signal
import statistics
import time

INTERVAL_S = 0.05


def _arith():
    total = 0
    for i in range(4000):
        total += i * i % 7
    return total


def _alloc():
    out = []
    for i in range(1500):
        pair = (i, i + 1, (i, 2))
        out.append([pair, {i: pair}])
    return len(out)


KERNELS = (("arith", _arith), ("alloc", _alloc))


class SpeedProbe:
    """Context manager around one timed pass: samples each kernel once on
    entry and once on exit, outside the pass, and in turns on every tick
    inside it.  `wall_s` and `cpu_s` give the time the in-pass samples
    took, to be taken off the pass's own times."""

    def __init__(self):
        self.samples = {name: [] for name, _ in KERNELS}
        self.wall_s = self.cpu_s = 0.0
        self._turn = 0
        self._previous = None

    def _sample(self, name, kernel):
        enabled = gc.isenabled()
        gc.disable()  # the kernel's garbage must not move the program's GC schedule
        cpu0, wall0 = time.process_time(), time.perf_counter()
        kernel()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if enabled:
            gc.enable()
        self.samples[name].append(wall)
        return wall, cpu

    def _tick(self, signum, frame):
        name, kernel = KERNELS[self._turn % len(KERNELS)]
        self._turn += 1
        wall, cpu = self._sample(name, kernel)
        self.wall_s += wall
        self.cpu_s += cpu

    def __enter__(self):
        for name, kernel in KERNELS:
            self._sample(name, kernel)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        for name, kernel in KERNELS:
            self._sample(name, kernel)
        return False

    def rate(self):
        """Probe units per second: the geometric mean over the kernels of
        the mean of 1 / kernel time."""
        return math.exp(statistics.mean(
            math.log(statistics.mean(1 / t for t in times))
            for times in self.samples.values()
        ))

    def median_ms(self):
        return {name: statistics.median(times) * 1e3 for name, times in self.samples.items()}
