"""Host-speed calibration.

The host's speed swings by tens of percent within seconds and drifts by
more over minutes (shared cores), and every CPU-bound stretch moves with
it.  The benchmark therefore times one fixed pure-Python loop around
each measured interval and reports seconds at one reference speed: the
raw seconds scaled by ``REFERENCE_S`` over the loop's time.  The loop
allocates, chases pointers and hashes like the simulator does, so it
slows down with the same contention.  The raw seconds are printed beside
the scaled ones.

A single-process workload scales each unit by the loop's time just
before and just after it.  A pooled workload's unit keeps every CPU busy
for seconds, across several swings of the host's speed, which two
samples around it do not represent: a :class:`Sampler` thread in the
parent, idle while the workers run, times the loop every
``Sampler.PERIOD_S`` in thread CPU time, and each unit is scaled by the
mean of the samples taken during it.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Optional, Sequence, Tuple

#: The calibration loop's time at the reference host speed.
REFERENCE_S = 0.005


class _Link:
    __slots__ = ("key", "next", "data")

    def __init__(self, key, following) -> None:
        self.key = key
        self.next = following
        self.data = {"k": key}


def _loop() -> None:
    head = None
    for i in range(6000):
        head = _Link(i, head)
    buckets = {}
    total = 0
    node = head
    while node is not None:
        buckets[node.key % 997] = node
        total += node.data["k"]
        node = node.next
    links = [_Link(i, None) for i in range(3000)]
    links.sort(key=lambda link: -link.key)


def sample() -> float:
    """Seconds the calibration loop takes right now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def calibrate(burst: int = 1) -> float:
    """Median of ``burst`` back-to-back samples."""
    return statistics.median(sample() for _ in range(burst))


class Sampler:
    """Calibration samples taken on a background thread."""

    PERIOD_S = 0.1

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (end time, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            start = time.thread_time()
            _loop()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - start))

    def during(self, start: float, end: float) -> Optional[float]:
        """Mean sample taken in ``[start, end]``, or the nearest one
        (``None`` before the first sample)."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if inside:
            return statistics.fmean(inside)
        if not self.samples:
            return None
        return min(self.samples, key=lambda item: abs(item[0] - end))[1]


def scale(raws: Sequence[float],
          calibrations: Sequence[float]) -> List[float]:
    """Reference-speed seconds of raw intervals, each given the
    calibration loop's time that represents it."""
    return [raw * REFERENCE_S / cal for raw, cal in zip(raws, calibrations)]
