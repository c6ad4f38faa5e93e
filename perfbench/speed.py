"""The host's speed, measured by a fixed reference kernel, and the
conversion of a timed interval to reference speed.

The shared 2-vCPU host the benchmark was tuned on runs the same code at
speeds up to 1.7x apart, in CPU time as well as wall time, in states that
switch within seconds and can last minutes; a whole 30-second run can fall
in one state, so no estimator over a run's own timings can take the state
out.  The reference kernel is abpkit-free Python doing what ``SparsePoly``
does, a dict keyed by small-int tuples updated with modular products, on a
working set under 1 MB.  Its time is steady within a state (a few percent)
and moves with the state, as abpkit's does: timed around 25 Q_4 verdicts it
correlated with them at 0.8-0.9.

The kernel is run (a probe) before an operation once ``PROBE_EVERY_S`` has
passed since the last probe, at the end of every pass and, while the
speedometer ticks, from a ``SIGALRM`` handler every ``PROBE_EVERY_S``,
inside long operations too (P_4 takes 8 s and the state can switch during
it).  An interval is cut at the probes inside it, which are left out, and
each piece is scaled by ``NOMINAL_S`` over the mean of the probes at its two
ends: the result reads as the time on a host on which the kernel takes
``NOMINAL_S``, about the tuning host's fast state.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time

# The kernel's time that counts as reference speed.
NOMINAL_S = 0.008
# Time between probes.
PROBE_EVERY_S = 0.25

_KEYS = 6000
_ROUNDS = 5
# The kernel updates this table in place, so a probe allocates nothing that
# outlives it and cannot raise the peak resident set of the run it times.
_TABLE = {(i % 31, (i // 31) % 17, i // 527): 1 for i in range(_KEYS)}


def kernel() -> int:
    """Fixed work: ``_ROUNDS`` rounds of ``_KEYS`` dict updates keyed by
    freshly built 3-tuples of small ints, values multiplied mod 101."""
    table = _TABLE
    for r in range(_ROUNDS):
        for i in range(_KEYS):
            key = (i % 31, (i // 31) % 17, i // 527)
            table[key] = table[key] * (i + r + 3) % 101
    return table[0, 0, 0]


class Speedometer:
    """Probes of the reference kernel in time order, as (start, seconds)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.starts: list = []
        self.seconds: list = []
        self.last_end = -float("inf")
        self.probe_s = 0.0
        self._probing = False

    def probe(self, *_signal_args) -> None:
        if self._probing:  # the timer fired during a probe
            return
        self._probing = True
        start = self.clock()
        kernel()
        end = self.clock()
        self.starts.append(start)
        self.seconds.append(end - start)
        self.last_end = end
        self.probe_s += end - start
        self._probing = False

    def maybe_probe(self) -> None:
        if self.clock() - self.last_end >= PROBE_EVERY_S:
            self.probe()

    @contextlib.contextmanager
    def ticking(self):
        """Probe every ``PROBE_EVERY_S`` of wall time, inside operations
        too, for the duration of the block."""
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def lengths(self, start: float, end: float) -> tuple:
        """The interval's busy time (probes inside it left out) and that
        time at reference speed."""
        first = bisect.bisect_left(self.starts, start)
        stop = bisect.bisect_left(self.starts, end)
        before = self.seconds[first - 1] if first > 0 else None
        busy = converted = 0.0
        t = start
        for k in range(first, stop + 1):
            piece_end = self.starts[k] if k < stop else end
            after = self.seconds[k] if k < len(self.seconds) else None
            ends = [x for x in (before, after) if x is not None]
            if not ends:
                raise RuntimeError("no reference probe near a timed interval")
            piece = max(piece_end - t, 0.0)
            busy += piece
            converted += piece * NOMINAL_S * len(ends) / sum(ends)
            if k < stop:
                t = self.starts[k] + self.seconds[k]
                before = self.seconds[k]
        return busy, converted

    def normalized(self, start: float, end: float) -> float:
        """The interval's busy time at reference speed."""
        return self.lengths(start, end)[1]
