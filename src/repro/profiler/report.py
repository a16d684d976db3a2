"""Joined profiling views and report rendering.

The trace half of Table 1 lives in :class:`ContextInfo` (library
counters); the heap half lives in :class:`ContextHeapAggregate` (collector
statistics).  :class:`ContextProfile` joins the two for one allocation
context, and :class:`ProfileReport` assembles the run-level picture: the
ranked list of contexts by space-saving potential (the tool output of
Fig. 3) and the per-cycle fraction series (Fig. 2 / Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.memory.stats import ContextHeapAggregate, HeapTimeline
from repro.profiler.context_info import ContextInfo
from repro.profiler.profiler import SemanticProfiler
from repro.runtime.context import ContextKey, ContextRegistry

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.collections.base import CollectionKind

__all__ = ["ContextProfile", "ProfileReport", "build_report"]


@dataclass
class ContextProfile:
    """Everything known about one allocation context after a run."""

    context_id: int
    key: Optional[ContextKey]
    info: ContextInfo
    heap: Optional[ContextHeapAggregate]
    kind: Optional["CollectionKind"]

    @property
    def src_type(self) -> str:
        """The program-visible collection type allocated here."""
        return self.info.src_type

    @property
    def total_potential(self) -> int:
        """Aggregate saving potential: totLive - totUsed over all cycles."""
        return self.heap.total_potential if self.heap is not None else 0

    @property
    def max_potential(self) -> int:
        """Peak-cycle saving potential: maxLive - maxUsed."""
        return self.heap.max_potential if self.heap is not None else 0

    def render_context(self) -> str:
        """``Type:frame;frame`` -- the paper's suggestion format."""
        frames = self.key.render() if self.key is not None else "<unknown>"
        return f"{self.src_type}:{frames}"

    def to_dict(self) -> dict:
        """A JSON-serialisable view of this context's statistics."""
        info = self.info
        data = {
            "context": self.render_context(),
            "srcType": self.src_type,
            "kind": self.kind.value if self.kind is not None else None,
            "instances": info.instances_allocated,
            "deadInstances": info.instances_dead,
            "implementations": sorted(info.impl_names),
            "avgMaxSize": info.avg_max_size,
            "maxSizeStddev": info.max_size_stddev,
            "initialCapacity": info.avg_initial_capacity,
            "allOps": info.all_ops_mean,
            "operations": {op.dsl_name: stat.mean
                           for op, stat in info.op_stats.items()
                           if stat.total > 0},
            "totalPotential": self.total_potential,
            "maxPotential": self.max_potential,
        }
        if self.heap is not None:
            data["heap"] = {
                "totLive": self.heap.live.total,
                "maxLive": self.heap.live.max,
                "totUsed": self.heap.used.total,
                "maxUsed": self.heap.used.max,
                "totCore": self.heap.core.total,
                "maxCore": self.heap.core.max,
                "maxLiveCount": self.heap.object_count.max,
            }
        return data


class ProfileReport:
    """Run-level profiling summary: ranked contexts + heap timeline."""

    def __init__(self, profiles: List[ContextProfile],
                 timeline: HeapTimeline) -> None:
        self.profiles = profiles
        self.timeline = timeline
        self._by_id: Dict[int, ContextProfile] = {
            profile.context_id: profile for profile in profiles}

    def context(self, context_id: int) -> Optional[ContextProfile]:
        """The profile for ``context_id``, if present."""
        return self._by_id.get(context_id)

    def top_contexts(self, n: int = 4,
                     by: str = "total_potential") -> List[ContextProfile]:
        """The ``n`` contexts with the largest saving potential.

        ``by`` selects the ranking aggregate: ``total_potential`` (default,
        the paper's sort) or ``max_potential``.
        """
        key = (lambda p: p.max_potential) if by == "max_potential" else (
            lambda p: p.total_potential)
        return sorted(self.profiles, key=key, reverse=True)[:n]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render_top_contexts(self, n: int = 4) -> str:
        """Fig. 3-style text: per-context potential and op distribution."""
        total_live = self.timeline.overall_live.total or 1
        lines = [f"Top {n} allocation contexts by space-saving potential:"]
        for rank, profile in enumerate(self.top_contexts(n), start=1):
            percent = 100.0 * profile.total_potential / total_live
            lines.append(
                f"{rank}: {profile.render_context()}  "
                f"potential={profile.total_potential}B "
                f"({percent:.1f}% of live-byte-cycles)  "
                f"instances={profile.info.instances_allocated} "
                f"avgMaxSize={profile.info.avg_max_size:.1f}")
            distribution = profile.info.operation_distribution()
            if distribution:
                ops = "  ".join(
                    f"{op.dsl_name}={fraction:.0%}"
                    for op, fraction in sorted(
                        distribution.items(),
                        key=lambda item: item[1], reverse=True)[:6])
                lines.append(f"   ops: {ops}")
        return "\n".join(lines)

    def to_dict(self, top: Optional[int] = None) -> dict:
        """A JSON-serialisable view of the whole report."""
        profiles = (self.top_contexts(top) if top is not None
                    else sorted(self.profiles,
                                key=lambda p: p.total_potential,
                                reverse=True))
        return {
            "gcCycles": self.timeline.cycle_count,
            "maxLiveData": self.timeline.max_live_data,
            "collectionLiveMax": self.timeline.collection_live.max,
            "collectionUsedMax": self.timeline.collection_used.max,
            "collectionCoreMax": self.timeline.collection_core.max,
            "fractions": [
                {"cycle": cycle, "live": live, "used": used, "core": core}
                for cycle, live, used, core in
                self.timeline.fractions_series()],
            "contexts": [profile.to_dict() for profile in profiles],
        }

    def render_fractions(self) -> str:
        """Fig. 2-style text: per-GC-cycle live/used/core percentages."""
        lines = ["cycle  live%  used%  core%"]
        for cycle, live, used, core in self.timeline.fractions_series():
            lines.append(f"{cycle:5d}  {100 * live:5.1f}  {100 * used:5.1f}"
                         f"  {100 * core:5.1f}")
        return "\n".join(lines)


def build_report(profiler: SemanticProfiler, timeline: HeapTimeline,
                 contexts: ContextRegistry) -> ProfileReport:
    """Join trace and heap statistics into a :class:`ProfileReport`.

    Raises ``ValueError`` on an unattributed timeline (a counting
    collector's): it holds no per-context heap data to join.
    """
    from repro.collections.registry import default_registry

    timeline.require_attributed("build_report")
    registry = default_registry()
    profiles: List[ContextProfile] = []
    for info in profiler.contexts():
        try:
            key = contexts.describe(info.context_id)
        except KeyError:
            key = None
        try:
            kind = registry.kind_of(info.src_type)
        except KeyError:
            kind = None
        profiles.append(ContextProfile(
            context_id=info.context_id,
            key=key,
            info=info,
            heap=timeline.context(info.context_id),
            kind=kind))
    return ProfileReport(profiles, timeline)
