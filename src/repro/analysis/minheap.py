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
generator that yields limits and receives outcomes) with one driver: it
explores the plan's decision tree ahead of the next unknown probe,
evaluates up to ``width`` candidate limits per round through a batch
function (a :class:`~repro.analysis.scheduler.Scheduler` pool in
practice), then replays the plan against the cached outcomes.  At width
1 the frontier is the plan's next probe alone, so a round is one serial
step.  Every bracket decision is taken by the same plan, so the
returned ``(minimum, probes)`` is byte-identical at any width --
speculation only changes how many *extra* probes are evaluated and how
much wall-clock each round costs.  The plain one-probe-at-a-time loop
survives as the test oracle's
:func:`~repro.verify.oracle.reference_find_min_heap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.apply import ReplacementMap
from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.memory.heap import OutOfMemoryError
from repro.workloads.base import Workload

__all__ = ["MinHeapResult", "find_min_heap", "measure_min_heap"]

#: Hard ceiling on the doubled upper bracket -- beyond this the workload
#: is considered to never complete.
_LIMIT_CEILING = 1 << 40


@dataclass(frozen=True)
class MinHeapResult:
    """Outcome of one minimal-heap search."""

    min_heap_bytes: int
    probes: int
    unconstrained_peak: int

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


def _replay(low: int, high: int, resolution: int,
            outcomes: Dict[int, bool]):
    """Drive the plan against cached outcomes.

    Returns ``("done", (min_heap, probes))`` when the plan finishes, or
    ``("need", limit)`` at the first probe whose outcome is unknown.
    """
    plan = _search_steps(low, high, resolution)
    try:
        limit = next(plan)
        while limit in outcomes:
            limit = plan.send(outcomes[limit])
        return "need", limit
    except StopIteration as stop:
        return "done", stop.value


def _speculative_frontier(low: int, high: int, resolution: int,
                          outcomes: Dict[int, bool],
                          width: int) -> List[int]:
    """Up to ``width`` uncached limits the plan may probe next.

    Explores the plan's decision tree from the current outcome cache:
    the single depth-1 node is the plan's next probe; depth-``d`` nodes
    are reachable after ``d - 1`` more outcomes.
    Nodes are ordered shallowest-first (they are the most certain to be
    needed), ties broken by limit value, so the frontier is
    deterministic.
    """
    # Smallest depth whose full tree has >= width nodes: 2^d - 1 >= width.
    max_depth = max(1, width).bit_length()
    depths: Dict[int, int] = {}

    def explore(hypothetical: Dict[int, bool], depth: int) -> None:
        plan = _search_steps(low, high, resolution)
        try:
            limit = next(plan)
            while True:
                if limit in outcomes:
                    limit = plan.send(outcomes[limit])
                elif limit in hypothetical:
                    limit = plan.send(hypothetical[limit])
                else:
                    break
        except StopIteration:
            return
        except RuntimeError:
            # A hypothetical all-failing branch ran off the limit
            # ceiling; nothing to probe down that branch.
            return
        previous = depths.get(limit)
        if previous is None or depth < previous:
            depths[limit] = depth
        if depth < max_depth:
            for outcome in (True, False):
                explore({**hypothetical, limit: outcome}, depth + 1)

    explore({}, 1)
    ordered = sorted(depths, key=lambda limit: (depths[limit], limit))
    return ordered[:width]


def find_min_heap(attempt: Callable[[int], bool], low: int, high: int,
                  resolution: int = 2048,
                  attempt_many: Optional[
                      Callable[[Sequence[int]], Sequence[bool]]] = None,
                  width: int = 1) -> tuple:
    """Search the smallest ``limit`` for which ``attempt(limit)``
    succeeds.

    Args:
        attempt: Runs the program under a byte limit; True on completion,
            False on OOM.  Must be deterministic.
        low: Initial lower bracket (verified; the search probes below it
            when it unexpectedly succeeds).
        high: Upper bracket; doubled until it succeeds.
        resolution: Terminate when the bracket is this tight.
        attempt_many: Optional batch evaluator: given a list of limits,
            returns their outcomes in order.  Without it, ``attempt``
            evaluates one limit per round.
        width: Maximum probes evaluated per round (at least 1); above
            1 the rounds speculate on the plan's decision tree.

    Returns:
        ``(min_heap_bytes, probes)`` -- identical at every width;
        ``probes`` counts the plan's probes, not the (possibly larger)
        number of speculative evaluations.
    """
    if low < 0 or high <= low:
        raise ValueError("need 0 <= low < high")
    if width < 1:
        raise ValueError("width must be >= 1")
    if attempt_many is None:
        # A one-limit frontier is exactly the plan's next probe.
        width = 1

        def attempt_many(limits: Sequence[int]) -> List[bool]:
            return [attempt(limit) for limit in limits]
    outcomes: Dict[int, bool] = {}
    while True:
        status, payload = _replay(low, high, resolution, outcomes)
        if status == "done":
            return payload
        frontier = _speculative_frontier(low, high, resolution, outcomes,
                                         width)
        for limit, outcome in zip(frontier, attempt_many(frontier)):
            outcomes[limit] = bool(outcome)


# ----------------------------------------------------------------------
# Probe execution (in-process and scheduler workers)
# ----------------------------------------------------------------------
#: Per-process memo of configured tools, so a pool worker builds its rule
#: engine once per ToolConfig rather than once per probe.
_PROBE_TOOLS: Dict[str, Chameleon] = {}


def _probe_tool(config: ToolConfig) -> Chameleon:
    tool = _PROBE_TOOLS.get(config.fingerprint())
    if tool is None:
        tool = Chameleon(config)
        _PROBE_TOOLS[config.fingerprint()] = tool
    return tool


def min_heap_probe(config: ToolConfig, workload: Workload,
                   policy: Optional[ReplacementMap], limit: int) -> bool:
    """One minimal-heap probe: completes under ``limit`` or OOMs.

    Top-level and argument-picklable so a :class:`~repro.analysis.
    scheduler.Scheduler` can fan probes out to pool workers; in-process
    probes funnel through it too, so both paths run the identical probe
    (fresh workload instance, same tool construction).
    """
    tool = _probe_tool(config)
    try:
        tool.plain_run(workload.fresh(), policy=policy, heap_limit=limit)
        return True
    except OutOfMemoryError:
        return False


def measure_min_heap(tool: Chameleon, workload: Workload,
                     policy: Optional[ReplacementMap] = None,
                     resolution: int = 2048,
                     scheduler=None) -> MinHeapResult:
    """Minimal heap for ``workload`` under ``tool``'s VM configuration.

    The unconstrained peak-live footprint seeds the search bracket: the
    true minimum is at least the peak live set and (for these workloads)
    at most a small multiple of it.

    A :class:`~repro.analysis.scheduler.Scheduler` with ``jobs > 1``
    enables speculative parallel bisection: each round batch-evaluates up
    to ``jobs`` candidate limits on the pool instead of one, and the
    result is byte-identical to the in-process search.
    """
    _, metrics = tool.plain_run(workload.fresh(), policy=policy)
    peak = max(metrics.peak_live_bytes, resolution)

    def attempt(limit: int) -> bool:
        return min_heap_probe(tool.config, workload, policy, limit)

    attempt_many = None
    width = 1
    if scheduler is not None and scheduler.jobs > 1:
        width = scheduler.jobs
        # Ship a never-run clone: a workload that already ran may hold
        # references into a live VM, which must not cross the pool.
        clone = workload.fresh()

        def attempt_many(limits: Sequence[int]) -> List[bool]:
            return scheduler.map(
                min_heap_probe,
                [(tool.config, clone, policy, limit)
                 for limit in limits],
                prefix=f"minheap:{workload.name}")

    min_heap, probes = find_min_heap(attempt, low=max(peak // 2, 1),
                                     high=peak * 2, resolution=resolution,
                                     attempt_many=attempt_many, width=width)
    return MinHeapResult(min_heap_bytes=min_heap, probes=probes,
                         unconstrained_peak=peak)
