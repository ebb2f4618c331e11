"""Host-time samples: the host's speed, and order statistics.

Host speed: on a shared host the same code runs up to 3x slower for
stretches of a second to several minutes, because other tenants use
the same cores.  :class:`HostSpeed` runs a fixed pure-Python probe
between timed calls, and inside them from a timer signal; the probe
slows by the same factor as the code around it, so a duration divided
by the probe's slowdown over it (a *scaled* time) reads the same
whatever the load.  Scaled times are seconds on the reference host
(:data:`REFERENCE_PROBE_S`).

The percentile rule: a timing is reported as its median and as the
highest percentile that has at least :data:`MIN_BEYOND` samples beyond
it.  ``run_s_p90`` therefore needs at least 100 samples; with fewer,
:func:`samples_beyond` says how many the reported p90 rests on.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from contextlib import contextmanager
from statistics import median
from typing import Callable, Iterator, List, Sequence, Tuple

MIN_BEYOND = 10

#: The probe's time on the reference host, a 2-core 2.0 GHz Xeon
#: virtual machine with no other load.
REFERENCE_PROBE_S = 0.75e-3
#: The probe is run this many times back to back and the fastest kept:
#: between timed calls, and inside one (where it interrupts the call).
PROBE_REPEATS = 3
INSIDE_REPEATS = 1
#: A probe taken this recently is reused as the next call's "before".
PROBE_FRESH_S = 0.02


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int):
        self.a = a
        self.b = 0

    def step(self, x: int) -> int:
        self.b = (self.b + x * self.a) & 0xFFFF
        return self.b


def probe_work() -> int:
    """A fixed piece of interpreter work: calls, attributes, a dict."""
    cells = [_Cell(i) for i in range(64)]
    table = {}
    acc = 0
    for i in range(3000):
        acc += cells[i & 63].step(i)
        table[i & 255] = acc
        if acc in table:
            acc ^= 1
    return acc


class HostSpeed:
    """How much slower than the reference host Python runs right now.

    Every probe is kept as ``(time, factor)``; a factor of 2.0 means
    the probe took twice :data:`REFERENCE_PROBE_S`.  With ``every_s``
    the probe also runs every ``every_s`` seconds inside a
    :meth:`sampling` block, from a ``SIGALRM`` handler; the wall time
    those probes take is summed in ``inside_s`` so that a caller can
    take it off the block's duration."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 reference_s: float = REFERENCE_PROBE_S,
                 every_s: float = 0.0):
        self.clock = clock
        self.reference_s = reference_s
        self.every_s = every_s
        self.probes: List[Tuple[float, float]] = []
        self.inside_s = 0.0
        self._sampling = False

    def _probe(self, repeats: int) -> Tuple[float, float]:
        """Run the probe; returns when it ended and the fastest run."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = math.inf
            for _ in range(repeats):
                start = self.clock()
                probe_work()
                best = min(best, self.clock() - start)
        finally:
            if enabled:
                gc.enable()
        end = self.clock()
        self.probes.append((end, best / self.reference_s))
        return end, best

    def measure(self) -> int:
        """Probe now; returns the probe's index."""
        self._probe(PROBE_REPEATS)
        return len(self.probes) - 1

    def _on_alarm(self, signum, frame) -> None:
        start = self.clock()
        end, _ = self._probe(INSIDE_REPEATS)
        self.inside_s += end - start

    @contextmanager
    def sampling(self) -> Iterator[None]:
        """Probe every ``every_s`` seconds while the block runs; a
        block inside another leaves the outer one's timer running."""
        if not self.every_s or self._sampling:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        self._sampling = True
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sampling = False

    def begin(self) -> int:
        """The index of a probe taken just now: the last one if it is
        fresh, otherwise a new one."""
        if self.probes and \
                self.clock() - self.probes[-1][0] <= PROBE_FRESH_S:
            return len(self.probes) - 1
        return self.measure()

    def speed_since(self, first: int) -> float:
        """The time-weighted mean of ``1 / factor`` from probe ``first``
        to the last probe: a wall time over that stretch times this is
        its scaled time."""
        points = self.probes[first:]
        span = points[-1][0] - points[0][0]
        if span <= 0:
            return sum(1 / f for _, f in points) / len(points)
        area = sum((t1 - t0) * (1 / f0 + 1 / f1) / 2
                   for (t0, f0), (t1, f1) in zip(points, points[1:]))
        return area / span

    def scaled(self, call: Callable[[], object]) -> float:
        """Run ``call`` between two probes, sampling inside it; its
        scaled duration, less the probes taken inside it."""
        first = self.begin()
        inside = self.inside_s
        start = self.clock()
        with self.sampling():
            call()
        wall = self.clock() - start - (self.inside_s - inside)
        self.measure()
        return wall * self.speed_since(first)

    def median_factor(self) -> float:
        """The median factor of every probe so far."""
        return median(f for _, f in self.probes) if self.probes else 1.0


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in (0, 100]) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``p``-th percentile."""
    return n - max(math.ceil(p / 100.0 * n), 1)


def tail_supported(n: int, p: float) -> bool:
    """Does the ``p``-th percentile of ``n`` samples have at least
    :data:`MIN_BEYOND` samples beyond it?"""
    return samples_beyond(n, p) >= MIN_BEYOND

