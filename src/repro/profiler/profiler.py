"""The semantic profiler facade.

This is the library half of Chameleon's instrumentation (Fig. 5): it hands
out :class:`ObjectContextInfo` records to collection wrappers at allocation
time (subject to the sampling policy), and folds them into per-context
:class:`ContextInfo` aggregates when instances die.  The VM half -- the
collection-aware GC -- feeds per-context heap statistics into the
:class:`~repro.memory.stats.HeapTimeline`; the two views are joined by
:mod:`repro.profiler.report`.

Death notification uses the heap's death hooks (the analog of the paper's
selective finalizers on ``ObjectContextInfo``); instances still alive when
the run ends are folded in by :meth:`SemanticProfiler.flush`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.profiler.context_info import ContextInfo
from repro.profiler.object_info import ObjectContextInfo
from repro.runtime.sampling import AlwaysSample, SamplingPolicy

__all__ = ["SemanticProfiler"]


def _fold_dead(live: Dict[int, ObjectContextInfo], key: int,
               context: ContextInfo, info: ObjectContextInfo,
               heap_obj: Any) -> None:
    """The death hook :meth:`SemanticProfiler.on_profiled_allocation`
    binds: :meth:`SemanticProfiler.on_death` with its lookups done."""
    live.pop(key, None)
    context.absorb(info)


class SemanticProfiler:
    """Collects and aggregates per-context collection usage statistics."""

    def __init__(self, sampling: Optional[SamplingPolicy] = None) -> None:
        self.sampling = sampling or AlwaysSample()
        self.enabled = True
        self._contexts: Dict[int, ContextInfo] = {}
        self._live: Dict[int, ObjectContextInfo] = {}
        self._next_instance_id = 1
        # Run-level counters for overhead accounting / reports.
        self.sampled_allocations = 0
        self.unsampled_allocations = 0

    # ------------------------------------------------------------------
    # Allocation-side API (called by wrappers)
    # ------------------------------------------------------------------
    def should_sample(self, src_type: str) -> bool:
        """Whether the next allocation of ``src_type`` should be profiled.

        Consults the sampling policy exactly once; callers must call this
        once per allocation (the policy's counters advance).
        """
        if not self.enabled:
            return False
        return self.sampling.should_sample(src_type)

    def on_allocation(self, context_id: int, src_type: str, impl_name: str,
                      initial_capacity: Optional[int] = None,
                      ) -> ObjectContextInfo:
        """Create the per-instance record for a sampled allocation.

        Its instance's death is reported with :meth:`on_death`.
        """
        return self.on_profiled_allocation(context_id, src_type, impl_name,
                                           initial_capacity)[0]

    def on_profiled_allocation(
            self, context_id: int, src_type: str, impl_name: str,
            initial_capacity: Optional[int] = None,
    ) -> Tuple[ObjectContextInfo, Callable[[Any], None]]:
        """:meth:`on_allocation`, plus the death hook for the instance's
        heap object.

        The hook does what :meth:`on_death` does for the record, with
        the context aggregate and the live-registry key bound here, at
        allocation, so a death costs one call and no lookups.  It is a
        ``partial`` (two small objects per instance, no closure cells)
        and points back at nothing that points at it.
        """
        info = ObjectContextInfo(context_id, src_type, impl_name,
                                 initial_capacity)
        key = self._next_instance_id
        self._next_instance_id = key + 1
        live = self._live
        live[key] = info
        context = self._context(context_id, src_type)
        context.on_allocation(impl_name)
        self.sampled_allocations += 1
        # Stash the registry key on the record so on_death can find it.
        info._registry_key = key
        return info, partial(_fold_dead, live, key, context, info)

    def on_unsampled_allocation(self, src_type: str) -> None:
        """Count an allocation that the sampling policy skipped."""
        self.unsampled_allocations += 1

    # ------------------------------------------------------------------
    # Death-side API (GC hooks / end of run)
    # ------------------------------------------------------------------
    def on_death(self, info: ObjectContextInfo) -> None:
        """Fold a dying instance's record into its context aggregate."""
        key = info._registry_key
        if key is not None:
            self._live.pop(key, None)
        context = self._context(info.context_id, info.src_type)
        context.absorb(info)

    def flush(self) -> int:
        """Fold every still-live instance in (end of run).

        Returns the number of instances flushed.
        """
        live = list(self._live.values())
        self._live.clear()
        for info in live:
            self._context(info.context_id, info.src_type).absorb(info)
        return len(live)

    # ------------------------------------------------------------------
    # Query API
    # ------------------------------------------------------------------
    def context_info(self, context_id: int) -> Optional[ContextInfo]:
        """The aggregate for ``context_id``, if any instance was profiled."""
        return self._contexts.get(context_id)

    def snapshot_context(self, context_id: int) -> Optional[ContextInfo]:
        """A point-in-time aggregate that also folds in the *live*
        instances at ``context_id`` (without disturbing their records).

        This is what lets the online mode decide "based on partial
        information" (section 3.3.2) for contexts whose collections never
        die -- TVLA's immortal abstract-state maps being the motivating
        case.
        """
        import copy

        base = self._contexts.get(context_id)
        if base is None:
            return None
        snapshot = copy.deepcopy(base)
        for info in self._live.values():
            if info.context_id == context_id:
                snapshot.absorb(info)
        return snapshot

    def contexts(self) -> Iterable[ContextInfo]:
        """All per-context aggregates."""
        return self._contexts.values()

    @property
    def live_instance_count(self) -> int:
        """Profiled instances not yet absorbed."""
        return len(self._live)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _context(self, context_id: int, src_type: str) -> ContextInfo:
        context = self._contexts.get(context_id)
        if context is None:
            context = ContextInfo(context_id, src_type)
            self._contexts[context_id] = context
        return context
