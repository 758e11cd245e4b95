"""A fixed pure-Python reference workload that gauges how fast the machine runs a session.

On a shared machine, other tenants can slow every process by a third or
more for seconds to minutes at a time, which moves every timing of a run
together.  A sampler thread runs this kernel every PERIOD_S throughout a
session and keeps the CPU time of each run.  The kernel never changes and
touches nothing of the package, so its time follows only the machine; an op's
latency divided by the kernel's mean time around that op does not.  Its
work is the kind the package does most: sorted tuple prefixes compared
pairwise.
"""

from __future__ import annotations

import random
import threading
import time

PERIOD_S = 0.1
# An op's reference is the mean kernel time of the runs that start in its
# interval widened by this much on each side.
WINDOW_S = 0.25

_rng = random.Random(0)
_WORDS = tuple(tuple(_rng.sample(range(1, 13), 12)) for _ in range(28))


def kernel() -> int:
    """How many ordered word pairs (u, v) have every sorted prefix of u at or below v's."""
    prefixes = {w: tuple(tuple(sorted(w[:i])) for i in range(1, len(w))) for w in _WORDS}
    below = 0
    for u in _WORDS:
        pu = prefixes[u]
        for v in _WORDS:
            pv = prefixes[v]
            below += all(x <= y for a, b in zip(pu, pv) for x, y in zip(a, b))
    return below


class Sampler:
    """Runs kernel() every PERIOD_S on a thread of its own.

    Each run is kept as (start ns on the monotonic clock, CPU seconds of the
    run).  CPU time leaves out the waits for the interpreter lock while the
    session's own thread runs, and keeps the slowdown other tenants cause.
    """

    def __init__(self, period_s: float = PERIOD_S) -> None:
        self.period_s = period_s
        self.runs: list[tuple[int, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="reference-sampler", daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(self.period_s):
            start = time.monotonic_ns()
            cpu = time.thread_time_ns()
            kernel()
            self.runs.append((start, (time.thread_time_ns() - cpu) / 1e9))

    def around(self, start_ns: int, end_ns: int, window_s: float = WINDOW_S) -> float:
        """Mean kernel seconds over the runs that started within window_s of [start_ns, end_ns].

        With no run in that window, the run that started nearest to it.
        """
        if not self.runs:
            raise LookupError("the reference kernel never ran")
        lo, hi = start_ns - window_s * 1e9, end_ns + window_s * 1e9
        times = [t for s, t in self.runs if lo <= s <= hi]
        if times:
            return sum(times) / len(times)
        return min(self.runs, key=lambda run: min(abs(run[0] - lo), abs(run[0] - hi)))[1]
