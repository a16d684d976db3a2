"""GC-cycle statistics (Table 3) and their cross-cycle aggregation (Table 1).

Every garbage-collection cycle the collection-aware collector computes a
:class:`GcCycleStats` snapshot: overall live data, collection live/used/core
data, live collection counts, a per-type breakdown, and a per-allocation-
context breakdown.  These are exactly the rows of Table 3 in the paper.

Across cycles the snapshots are folded into :class:`HeapAggregate` values
(total and max, as in Table 1) and appended to a :class:`HeapTimeline`,
which is the data behind Fig. 2 (TVLA's live/used/core percentages per GC
cycle) and Fig. 8 (bloat's collection spike).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "ContextCycleStats",
    "GcCycleStats",
    "HeapAggregate",
    "ContextHeapAggregate",
    "HeapTimeline",
]


@dataclass
class ContextCycleStats:
    """Per-allocation-context slice of one GC cycle."""

    context_id: int
    live: int = 0
    used: int = 0
    core: int = 0
    object_count: int = 0

    def add(self, live: int, used: int, core: int) -> None:
        """Fold one collection instance's footprint into this context."""
        self.live += live
        self.used += used
        self.core += core
        self.object_count += 1

    @property
    def potential(self) -> int:
        """This cycle's potential saving at the context (live - used)."""
        return self.live - self.used


@dataclass
class GcCycleStats:
    """One cycle's collection-aware statistics (Table 3).

    Attributes:
        cycle: 1-based GC cycle index.
        tick: Virtual time at which the cycle ran.
        live_data: Bytes of all reachable objects.
        collection_live: Bytes of reachable collection ADTs.
        collection_used: Used bytes of reachable collection ADTs.
        collection_core: Core bytes of reachable collection ADTs.
        collection_objects: Number of reachable collection ADTs.
        type_distribution: Live-byte breakdown per simulated type, with
            collection internals attributed to the owning ADT's type.
        per_context: Per-allocation-context collection statistics.
        kind: Cycle flavour: ``"full"`` for the base collector, or
            ``"minor"``/``"full"`` under the generational collector.
        freed_bytes: Garbage reclaimed by the sweep.
        freed_objects: Objects reclaimed by the sweep.
    """

    cycle: int
    tick: int = 0
    kind: str = "full"
    live_data: int = 0
    collection_live: int = 0
    collection_used: int = 0
    collection_core: int = 0
    collection_objects: int = 0
    type_distribution: Dict[str, int] = field(default_factory=dict)
    per_context: Dict[int, ContextCycleStats] = field(default_factory=dict)
    freed_bytes: int = 0
    freed_objects: int = 0

    def context(self, context_id: int) -> ContextCycleStats:
        """The (created-on-demand) per-context slice for ``context_id``."""
        stats = self.per_context.get(context_id)
        if stats is None:
            stats = ContextCycleStats(context_id)
            self.per_context[context_id] = stats
        return stats

    def add_type_bytes(self, type_name: str, size: int) -> None:
        """Attribute ``size`` live bytes to ``type_name``."""
        self.type_distribution[type_name] = (
            self.type_distribution.get(type_name, 0) + size
        )

    @property
    def collection_fraction(self) -> float:
        """Fraction of live data occupied by collections (Fig. 2 'live')."""
        return self.collection_live / self.live_data if self.live_data else 0.0

    @property
    def used_fraction(self) -> float:
        """Fraction of live data that is used collection space."""
        return self.collection_used / self.live_data if self.live_data else 0.0

    @property
    def core_fraction(self) -> float:
        """Fraction of live data that is core collection space."""
        return self.collection_core / self.live_data if self.live_data else 0.0


@dataclass
class HeapAggregate:
    """Total-and-max aggregation of one heap metric across GC cycles.

    Table 1 reports every heap metric both as a *total* (sum over all GC
    cycles -- a byte-cycles integral that weights long-lived space more)
    and a *max* (the worst single cycle).
    """

    total: int = 0
    max: int = 0
    cycles: int = 0

    def observe(self, value: int) -> None:
        """Fold one cycle's value into the aggregate."""
        self.total += value
        if value > self.max:
            self.max = value
        self.cycles += 1

    @property
    def mean(self) -> float:
        """Average per observed cycle."""
        return self.total / self.cycles if self.cycles else 0.0


@dataclass
class ContextHeapAggregate:
    """Cross-cycle heap aggregates for one allocation context."""

    context_id: int
    live: HeapAggregate = field(default_factory=HeapAggregate)
    used: HeapAggregate = field(default_factory=HeapAggregate)
    core: HeapAggregate = field(default_factory=HeapAggregate)
    object_count: HeapAggregate = field(default_factory=HeapAggregate)

    def observe_cycle(self, stats: ContextCycleStats) -> None:
        """Fold one cycle's context slice into the aggregates."""
        self.live.observe(stats.live)
        self.used.observe(stats.used)
        self.core.observe(stats.core)
        self.object_count.observe(stats.object_count)

    @property
    def total_potential(self) -> int:
        """Aggregate potential saving: totLive - totUsed (section 3.3)."""
        return self.live.total - self.used.total

    @property
    def max_potential(self) -> int:
        """Peak-cycle potential saving: maxLive - maxUsed."""
        return self.live.max - self.used.max


class HeapTimeline:
    """The full per-cycle history plus Table 1 heap aggregates.

    This is the collector-side output of a run: Fig. 2 and Fig. 8 plot
    ``cycles`` directly, while the rule engine consumes the per-context
    aggregates.

    A counting collector's timeline is *unattributed*
    (``attributed=False``): its cycles carry exact ``live_data``,
    ``collection_objects`` and freed counts, but their collection
    bytes, type distribution and per-context slices were never
    measured.  The readers of that breakdown (:meth:`context`,
    :meth:`fractions_series`, :meth:`contexts_by_total_potential`)
    raise ``ValueError`` on it rather than report zeros.
    """

    #: Class-level default, so a timeline pickled before the flag
    #: existed loads as attributed (it was).
    attributed = True

    def __init__(self, attributed: bool = True) -> None:
        self.attributed = attributed
        self.cycles: List[GcCycleStats] = []
        self.overall_live = HeapAggregate()
        self.collection_live = HeapAggregate()
        self.collection_used = HeapAggregate()
        self.collection_core = HeapAggregate()
        self.collection_objects = HeapAggregate()
        self.per_context: Dict[int, ContextHeapAggregate] = {}

    def record(self, stats: GcCycleStats) -> None:
        """Append one cycle and update every aggregate."""
        self.cycles.append(stats)
        self.overall_live.observe(stats.live_data)
        self.collection_live.observe(stats.collection_live)
        self.collection_used.observe(stats.collection_used)
        self.collection_core.observe(stats.collection_core)
        self.collection_objects.observe(stats.collection_objects)
        for context_id, ctx_stats in stats.per_context.items():
            agg = self.per_context.get(context_id)
            if agg is None:
                agg = ContextHeapAggregate(context_id)
                self.per_context[context_id] = agg
            agg.observe_cycle(ctx_stats)

    def require_attributed(self, what: str) -> None:
        """Raise ``ValueError`` naming ``what`` if this timeline is
        unattributed (recorded by a counting collector)."""
        if not self.attributed:
            raise ValueError(
                f"{what} needs the Table 3 breakdown, but this timeline "
                "was recorded by a counting collector (unattributed); "
                "run with a profiler to attribute it")

    def context(self, context_id: int) -> Optional[ContextHeapAggregate]:
        """Heap aggregates for ``context_id``, if any cycle saw it."""
        self.require_attributed("a per-context heap read")
        return self.per_context.get(context_id)

    @property
    def cycle_count(self) -> int:
        """Number of GC cycles recorded."""
        return len(self.cycles)

    @property
    def max_live_data(self) -> int:
        """Peak live data over the run (the footprint headline)."""
        return self.overall_live.max

    def fractions_series(self) -> List[tuple]:
        """(cycle, live%, used%, core%) rows -- the Fig. 2 series."""
        self.require_attributed("the Fig. 2 series")
        return [
            (s.cycle, s.collection_fraction, s.used_fraction, s.core_fraction)
            for s in self.cycles
        ]

    def contexts_by_total_potential(self) -> List[ContextHeapAggregate]:
        """Contexts ranked by aggregate potential saving, best first."""
        self.require_attributed("a potential ranking")
        return sorted(self.per_context.values(),
                      key=lambda a: a.total_potential, reverse=True)
