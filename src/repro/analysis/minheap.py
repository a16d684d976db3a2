"""Minimal-heap-size search: the measurement behind Fig. 6.

The paper evaluates every fix by "the minimal-heap size required to run
the program" (section 5.2, step 6).  The simulated VM gives that measure a
precise meaning: the smallest heap byte limit under which the workload
completes without :class:`~repro.memory.heap.OutOfMemoryError` (the VM
collects when the limit would be exceeded and raises only if the live set
itself cannot fit).

:func:`find_min_heap` binary-searches the limit.  Because the workloads
are deterministic, the search is exact down to the requested resolution.

The search is expressed as a *probe plan* (:func:`_search_steps`, a
generator that yields limits and receives outcomes) that
:func:`find_min_heap` drives one probe at a time.  The test oracle's
:func:`~repro.verify.oracle.reference_find_min_heap` drives the same
plan with no bounds, running every probe.  A search is a serial chain
of probes; the experiments parallelise whole searches instead (one
scheduler job per Fig. 6/7 bar).

*Decided probes.*  :func:`measure_min_heap` already makes one
unconstrained run, and that run decides two kinds of probe without
running them:

* a limit below its ``peak_live_bytes`` OOMs.  A plain run carries no
  death hooks, so nothing it does depends on GC timing; every allocation
  passes the limit test, so occupancy never exceeds the limit; yet at the
  program point of the peak cycle the reachable set -- at least
  ``peak_live_bytes`` -- is still allocated.
* a limit at or above its ``total_allocated_bytes`` completes.
  Occupancy never exceeds total allocation, so the limit test never
  trips and the run *is* the unconstrained run: same ticks, same GC
  cycles.

Both arguments need ``heap.limit`` to be read by the allocator alone.
The driver answers decided limits from these bounds (``floor`` and
``ceiling`` of :func:`find_min_heap`) without running them; the plan,
hence every reported minimum, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.apply import ReplacementMap
from repro.core.chameleon import Chameleon, RunMetrics
from repro.core.config import ToolConfig
from repro.memory.heap import OutOfMemoryError
from repro.workloads.base import Workload

__all__ = ["MinHeapResult", "find_min_heap", "measure_min_heap"]

#: Hard ceiling on the doubled upper bracket -- beyond this the workload
#: is considered to never complete.
_LIMIT_CEILING = 1 << 40


@dataclass(frozen=True)
class MinHeapResult:
    """Outcome of one minimal-heap search.

    ``probes`` counts the probe runs the search actually executed: the
    plan's probes minus those the unconstrained run decided (see the
    module docstring).  ``at_minimum`` is the run under
    ``min_heap_bytes`` -- the unconstrained run's metrics when the
    minimum is at or above its total allocation.
    ``unconstrained_peak`` is the unconstrained run's peak live bytes.
    """

    min_heap_bytes: int
    probes: int
    unconstrained_peak: int
    at_minimum: RunMetrics

    @property
    def headroom(self) -> float:
        """min-heap / peak-live ratio (>1: GC needs slack to operate)."""
        if self.unconstrained_peak == 0:
            return 1.0
        return self.min_heap_bytes / self.unconstrained_peak


def _search_steps(low: int, high: int, resolution: int):
    """The probe plan: yields the next limit, receives its outcome.

    Returns ``(min_heap_bytes, probes)`` via ``StopIteration``.  Both
    brackets are *verified*, not assumed: ``high`` is doubled until it
    succeeds, and ``low`` is probed and halved downward while it
    succeeds.  An assumed-failing ``low`` that actually completes would
    otherwise inflate the reported minimum to ``low + resolution`` -- a
    seed of ``peak // 2`` then understates every Fig. 6 improvement whose
    true minimum sits at or below the seed.
    """
    probes = 0
    low_known_failing = False
    while True:
        probes += 1
        if (yield high):
            break
        low = high
        low_known_failing = True
        high *= 2
        if high > _LIMIT_CEILING:
            raise RuntimeError("workload does not complete in any heap")
    if not low_known_failing:
        # Verify the lower bracket: halve downward while it succeeds.
        while low > 0:
            probes += 1
            if not (yield low):
                break
            high = low
            low //= 2
    while high - low > resolution:
        middle = (low + high) // 2
        probes += 1
        if (yield middle):
            high = middle
        else:
            low = middle
    return high, probes


def find_min_heap(attempt: Callable[[int], bool], low: int, high: int,
                  resolution: int = 2048, floor: int = 0,
                  ceiling: Optional[int] = None) -> tuple:
    """Search the smallest ``limit`` for which ``attempt(limit)``
    succeeds.

    Args:
        attempt: Runs the program under a byte limit; truthy on
            completion, falsy on OOM.  Must be deterministic.
        low: Initial lower bracket (verified; the search probes below it
            when it unexpectedly succeeds).
        high: Upper bracket; doubled until it succeeds.
        resolution: Terminate when the bracket is this tight (at
            least 1).
        floor: Every limit below it is known to fail; such probes are
            answered without calling ``attempt``.
        ceiling: Every limit at or above it is known to succeed (``None``:
            no such bound); such probes are answered likewise.

    Returns:
        ``(min_heap_bytes, probes)``; ``probes`` counts the ``attempt``
        calls, i.e. the plan's probes the bounds left undecided.  The
        bounds change only ``probes``, never the minimum.
    """
    if low < 0 or high <= low:
        raise ValueError("need 0 <= low < high")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if ceiling is not None and ceiling < floor:
        raise ValueError("need floor <= ceiling")
    plan = _search_steps(low, high, resolution)
    probes = 0
    try:
        limit = next(plan)
        while True:
            if limit < floor:
                outcome = False
            elif ceiling is not None and limit >= ceiling:
                outcome = True
            else:
                probes += 1
                outcome = bool(attempt(limit))
            limit = plan.send(outcome)
    except StopIteration as stop:
        return stop.value[0], probes


# ----------------------------------------------------------------------
# Probe execution
# ----------------------------------------------------------------------
#: Per-process memo of configured tools, so a process builds its rule
#: engine once per ToolConfig rather than once per probe.
_PROBE_TOOLS: Dict[str, Chameleon] = {}


def _probe_tool(config: ToolConfig) -> Chameleon:
    tool = _PROBE_TOOLS.get(config.fingerprint())
    if tool is None:
        tool = Chameleon(config)
        _PROBE_TOOLS[config.fingerprint()] = tool
    return tool


def min_heap_probe(config: ToolConfig, workload: Workload,
                   policy: Optional[ReplacementMap],
                   limit: int) -> Optional[RunMetrics]:
    """One minimal-heap probe: the run's metrics under ``limit``, or
    ``None`` if it OOMs.

    Every probe :func:`measure_min_heap` runs goes through this
    module-level function (fresh workload instance, memoised tool), so
    a wrapper installed on the module attribute sees each one.
    """
    tool = _probe_tool(config)
    try:
        _, metrics = tool.plain_run(workload.fresh(), policy=policy,
                                    heap_limit=limit)
        return metrics
    except OutOfMemoryError:
        return None


def measure_min_heap(tool: Chameleon, workload: Workload,
                     policy: Optional[ReplacementMap] = None,
                     resolution: int = 2048) -> MinHeapResult:
    """Minimal heap for ``workload`` under ``tool``'s VM configuration.

    The unconstrained run seeds the search bracket -- the true minimum
    is at least the peak live set and (for these workloads) at most a
    small multiple of it -- and decides every probe below its peak live
    bytes (OOM) or at or above its total allocation (completes), so
    only the limits in between are run.
    """
    _, metrics = tool.plain_run(workload.fresh(), policy=policy)
    # The bracket seed is clamped to one resolution step; the reported
    # peak is the run's own.
    seed = max(metrics.peak_live_bytes, resolution)
    runs: Dict[int, Optional[RunMetrics]] = {}

    def attempt(limit: int) -> Optional[RunMetrics]:
        runs[limit] = run = min_heap_probe(tool.config, workload, policy,
                                           limit)
        return run

    ceiling = metrics.total_allocated_bytes
    min_heap, probes = find_min_heap(attempt, low=max(seed // 2, 1),
                                     high=seed * 2, resolution=resolution,
                                     floor=metrics.peak_live_bytes,
                                     ceiling=ceiling)
    return MinHeapResult(
        min_heap_bytes=min_heap, probes=probes,
        unconstrained_peak=metrics.peak_live_bytes,
        at_minimum=metrics if min_heap >= ceiling else runs[min_heap])
