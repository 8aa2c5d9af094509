"""Timing in reference seconds, steady across a shared host's speed changes.

A few cores of a shared machine run the same Python code up to 1.7 times
slower in some spells than in others, and the spells last from a fraction of
a second to minutes; CPU time slows with them, so process time does not help.
A ratio of two timings made close together is steady, though.  So every
timed interval is bracketed by a fixed probe: a short stretch of the same
kind of interpreter work the library does (table lookups, bit tricks and
XORs on small ints, shifts and XORs on big ints), with no code from the
library in it.  Calls longer than TICK_S outlast the spells, so the probe
also runs inside them, from a SIGALRM handler every TICK_S, and the time
the handler takes is taken off the call's time.  An interval is then
reported as

    wall time * PROBE_REF_S / (mean of the probe times around and inside it)

that is, in seconds of a host on which the probe takes PROBE_REF_S.  A
change to the library moves the interval and not the probe, so it moves the
reported time as much as it moves the wall time.  On the m=11 batch
workload, whose calls take about 0.3 s, sampling inside the calls halved the
run-to-run spread of its timings.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

# The probe's nominal time; about its time on a fast spell of a 2-core
# x86-64 cloud host with CPython 3.
PROBE_REF_S = 1.0e-3
PROBE_STEPS = 800  # sized so that one probe takes about PROBE_REF_S there
PROBE_REPEATS = 2  # a probe is the fastest of this many, against interrupts
TICK_S = 0.04  # period of the probes inside a call; they take a few % of it

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D
_BIG = [random.Random(7).getrandbits(4096) for _ in range(64)]


def _probe_work(steps: int = PROBE_STEPS) -> int:
    small = big = 0
    for i in range(steps):
        a = (i * 37) % 255 + 1
        b = (i * 91) % 255 + 1
        small ^= _EXP[_LOG[a] + _LOG[b]]
        r = a | (b << 8)
        while r:
            small ^= (r & -r).bit_length()
            r &= r - 1
        big ^= _BIG[i & 63] >> (i & 7)
    return small ^ (big & 1)


def probe() -> float:
    """Seconds the probe takes now (the fastest of PROBE_REPEATS)."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = perf_counter()
        _probe_work()
        best = min(best, perf_counter() - start)
    return best


class HostClock:
    """Times calls in reference seconds; see the module docstring."""

    def __init__(self, ticks: bool = True):
        """ticks=False leaves out the probes inside calls, for runs whose
        wall times must not include them (the traced run)."""
        self.ticks = ticks
        self.last_probe = probe()
        self.wall_s = 0.0  # wall time of every interval timed so far
        self.ref_s = 0.0  # the same intervals in reference seconds
        self._inside: list[float] = []  # probe times inside the current call
        self._inside_s = 0.0  # time the handler took in the current call

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self._inside.append(probe())
        self._inside_s += perf_counter() - start

    def timed(self, fn):
        """Call fn(); return (its result or the exception it raised, wall
        seconds, reference seconds, whether it raised)."""
        samples = [self.last_probe]
        self._inside, self._inside_s = samples, 0.0
        if self.ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = perf_counter()
        try:
            out, raised = fn(), False
        except Exception as exc:  # the caller decides what a raise means
            out, raised = exc, True
        finally:
            wall = perf_counter() - start
            if self.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        wall -= self._inside_s
        self.last_probe = probe()
        samples.append(self.last_probe)
        ref = wall * PROBE_REF_S * len(samples) / sum(samples)
        self.wall_s += wall
        self.ref_s += ref
        return out, wall, ref, raised

    def speed(self) -> float:
        """Host speed over the timed intervals, relative to the reference."""
        return self.ref_s / self.wall_s if self.wall_s else 1.0
