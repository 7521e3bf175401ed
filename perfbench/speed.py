"""The machine's speed, sampled all through a round.

On a shared host the same Python code runs at two or more speeds that
switch within a second: on the 2-vCPU VM the figures in README.md come
from, the probe below takes 0.2 ms while the core is quiet and 0.4 ms
while the neighbours are busy, for periods of tenths of a second to
minutes.  A timer signal runs the probe every EVERY_S seconds of wall
time, also in the middle of a timed call.  `measure` turns a stretch of
wall time into seconds at reference speed: the probes are cut out, and
each piece between two probes is multiplied by REF_S over the mean time
of the two.  A program change moves the scaled time as it moves the
wall time; the neighbours move only the wall time.

Only untraced rounds sample: under cProfile the handler's time would
be charged to whatever doublebase function it interrupted.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import monotonic

EVERY_S = 0.01
REF_S = 2.0e-4  # one probe on a quiet core of the reference VM


_SLOTS = dict.fromkeys(range(64), 0)


def probe() -> int:
    """A fixed mix of big-integer arithmetic, dict stores and str()
    calls, like the library's pure-Python mpmath work; ~0.2 ms.  It
    allocates no object the garbage collector tracks, so it never
    starts a collection of the program's objects."""
    x, acc, d = 12345678901234567890123, 0, _SLOTS
    for i in range(500):
        x = (x * 1103515245 + i) % 340282366920938463463374607431768211507
        d[i & 63] = x >> 17
        acc += len(str(i)) + (x & 255)
    return acc


class Speedometer:
    """The probes of one round: their start and end on
    time.monotonic()'s clock and, after stop(), the time each stands
    for."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        took = [b - a for a, b in zip(self.starts, self.ends)]
        if not took:
            raise RuntimeError("no speed samples: the timer did not fire")
        # a probe that a preemption or an interrupt hit says nothing of
        # the speed: each probe stands for the median of it and its two
        # neighbours
        self.took = [statistics.median(took[max(k - 1, 0): k + 2]) for k in range(len(took))]

    def _tick(self, signum, frame):
        t0 = monotonic()
        probe()
        self.starts.append(t0)
        self.ends.append(monotonic())

    def measure(self, a: float, b: float) -> tuple[float, float]:
        """Wall seconds in [a, b] outside the probes, and the same at
        reference speed.

        Between two probes the machine runs at the mean speed of the
        two.  The handler runs in the main thread, so `a` and `b` never
        fall inside a probe."""
        starts, ends, took = self.starts, self.ends, self.took
        k = bisect.bisect_right(ends, a)  # [a, ...) starts in the gap before probe k
        wall = scaled = 0.0
        t = a
        while True:
            stop = starts[k] if k < len(starts) else b
            both = took[max(k - 1, 0): k + 1]
            piece = min(stop, b) - t
            wall += piece
            scaled += piece * REF_S * len(both) / sum(both)
            if stop >= b:
                return wall, scaled
            t, k = ends[k], k + 1
