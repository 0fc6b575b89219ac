"""In-run measurement of the machine's speed.

The shared machines this benchmark was built on slow down and speed up by
up to 1.8x for tens of seconds at a time, as other tenants come and go; the
same request then takes up to 1.8x as long, which would swamp any change to
the library.  So while a run is in progress a timer signal interrupts it
every ``INTERVAL`` seconds, in the one thread it has, to time a fixed
calibration chunk of pure-Python work.  A request's time is its measured
time minus the chunks that ran inside it, multiplied by
``REFERENCE_CHUNK_S / median(chunk times during or around it)``: the time
on a machine where the chunk takes ``REFERENCE_CHUNK_S`` (a quiet 2 GHz
x86-64 core).  The chunk does not use ``itl``, so a change to the library
moves the scaled times as much as the measured ones.  Every run also prints
its measured times.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REFERENCE_CHUNK_S = 0.006
INTERVAL = 0.25
NEAREST = 16  # at least this many samples set the speed of a request


def calibration_chunk() -> int:
    """Small-integer arithmetic and lookups in a small dictionary keyed by
    tuples: cache-resident interpreter work, which tracked the library's
    slowdowns on this host better than work on large integers or on many
    objects."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(24000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0) + 1
        acc += (i * i) & 255
    return acc + len(table)


class SpeedProbe:
    """Times the calibration chunk on every timer signal between ``start``
    and ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum=None, frame=None) -> None:
        start = perf_counter()
        calibration_chunk()
        self.samples.append((start, perf_counter() - start))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def net(self, start: float, end: float) -> float:
        """Time from ``start`` to ``end`` not spent in calibration chunks."""
        return (end - start) - sum(d for s, d in self.samples if start <= s < end)

    def factor(self, start: float, end: float) -> float:
        """Multiply a time measured from ``start`` to ``end`` by this to get
        the time at reference speed."""
        inside = [d for s, d in self.samples if start <= s < end]
        if len(inside) < NEAREST:
            mid = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))[:NEAREST]
            inside = [d for _, d in nearest]
        return REFERENCE_CHUNK_S / statistics.median(inside)
