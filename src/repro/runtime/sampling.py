"""Sampling policies for allocation-context capture.

Capturing an allocation context is the single most expensive piece of
Chameleon's instrumentation (section 5.4 measures it as the bottleneck of
the fully automatic mode).  Section 4.2 describes two mitigations; only
the first is reproduced here:

* plain *sampling* -- capture only every N-th allocation, controlled at
  the level of a specific constructor (source type);
* *adaptive shut-off* -- once the observed space-saving potential for a
  source type is low, stop tracking that type entirely.  Not reproduced:
  the profiler keeps no per-type potential to feed it.

Policies are deterministic (counter-based, no randomness) so every
experiment is exactly reproducible.
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "SamplingPolicy",
    "AlwaysSample",
    "NeverSample",
    "RateSampler",
]


class SamplingPolicy:
    """Decides, per allocation, whether to capture and profile."""

    def should_sample(self, src_type: str) -> bool:
        """Whether this allocation of ``src_type`` should be profiled."""
        raise NotImplementedError


class AlwaysSample(SamplingPolicy):
    """Profile every allocation (maximum fidelity, maximum overhead)."""

    def should_sample(self, src_type: str) -> bool:
        return True


class NeverSample(SamplingPolicy):
    """Profile nothing -- the instrumentation-off configuration used for
    the timing runs of Fig. 7."""

    def should_sample(self, src_type: str) -> bool:
        return False


class RateSampler(SamplingPolicy):
    """Deterministic 1-in-N sampling, independently per source type.

    The first ``warmup`` allocations of each type are always sampled so
    small contexts are not missed entirely.
    """

    def __init__(self, rate: int, warmup: int = 8) -> None:
        if rate < 1:
            raise ValueError("sampling rate must be >= 1")
        if warmup < 0:
            raise ValueError("warmup cannot be negative")
        self.rate = rate
        self.warmup = warmup
        self._counts: Dict[str, int] = {}

    def should_sample(self, src_type: str) -> bool:
        count = self._counts.get(src_type, 0)
        self._counts[src_type] = count + 1
        if count < self.warmup:
            return True
        return (count - self.warmup) % self.rate == 0
