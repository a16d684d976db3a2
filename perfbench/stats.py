"""The benchmark's own arithmetic: percentiles, span self time, ratios.

Kept free of any ``repro`` import so the self-tests in ``tests/`` can
check it in isolation.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is only trusted when at least this many samples lie
#: beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q`` quantile (``0 < q <= 1``) of ``values``."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank strictly above the nearest-rank
    ``q`` quantile."""
    if n <= 0:
        return 0
    return n - max(1, math.ceil(q * n))


def percentile_reportable(n: int, q: float) -> bool:
    """Whether ``n`` samples leave :data:`MIN_BEYOND` beyond quantile
    ``q`` (p90 needs at least 100 samples)."""
    return samples_beyond(n, q) >= MIN_BEYOND


def iqr_share(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of ``statistics.quantiles(n=4)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def covered_length(intervals: Iterable[Tuple[float, float]],
                   lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Overlapping intervals count once, which is what makes self time
    correct when children ran concurrently in several processes.
    """
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in clipped:
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple]) -> Dict[object, float]:
    """Self time of every span: its duration minus the part of it that
    its direct children cover.

    Each span is ``(span_id, name, start, end, parent_id, ...)``; extra
    trailing fields are ignored.  Children may come from other processes
    (timestamps share one monotonic clock) and may overlap each other.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span[4], []).append((span[2], span[3]))
    out: Dict[object, float] = {}
    for span in spans:
        sid, _name, start, end = span[0], span[1], span[2], span[3]
        kids = children.get(sid)
        covered = covered_length(kids, start, end) if kids else 0.0
        out[sid] = (end - start) - covered
    return out


def self_time_by_name(spans: Sequence[Tuple]) -> Dict[str, float]:
    """Summed self time per span name."""
    per_span = self_times(spans)
    out: Dict[str, float] = {}
    for span in spans:
        out[span[1]] = out.get(span[1], 0.0) + per_span[span[0]]
    return out


class Ratio:
    """A ratio that keeps its base, so every report line can print it."""

    def __init__(self, name: str, num: float, num_label: str,
                 den: float, den_label: str, scale: float = 1.0) -> None:
        self.name = name
        self.num = num
        self.num_label = num_label
        self.den = den
        self.den_label = den_label
        self.scale = scale

    @property
    def value(self) -> float:
        """``scale * num / den``; 0.0 when the base is empty."""
        return self.scale * self.num / self.den if self.den else 0.0

    def render(self) -> str:
        scale = f"{self.scale:g} * " if self.scale != 1.0 else ""
        return (f"{self.name} = {self.value:.6g} "
                f"(base: {scale}{self.num_label} {self.num:.6g} / "
                f"{self.den_label} {self.den:.6g})")
