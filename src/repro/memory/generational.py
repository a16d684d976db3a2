"""A two-generation collector: the paper's threat-to-validity, testable.

Section 4.3.2: "We note that our choice of this specific collector can
possibly lead to different results than if we had used for example a
generational collector.  However, the improvements in collection usage
are orthogonal to the specific GC."  This module makes that claim
checkable: :class:`GenerationalGC` is a drop-in alternative collector,
and the ``test_ablations`` benchmark re-measures the headline TVLA result
under it.

Model
-----
Objects are born in the *nursery*; an object that survives
``tenure_age`` minor collections is promoted to the *tenured*
generation.

* **Minor** cycles compute the full reachability closure (the simulation
  has no remembered sets, so marking stays exact and the Table 3
  statistics stay complete) but only *sweep the nursery*: unreachable
  tenured objects persist as floating garbage until the next major cycle
  -- the usual generational behaviour.  The cost model reflects the
  generational bargain: full mark work is charged only for nursery
  objects, with a small card-scanning charge per tenured object.
* **Major** cycles behave exactly like the base mark-sweep collector.

The runtime triggers minor cycles on the periodic allocation threshold
and escalates to major cycles under heap-limit pressure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.memory.gc import GcCostParameters, MarkSweepGC
from repro.memory.heap import SimHeap
from repro.memory.semantic_maps import SemanticMapRegistry
from repro.memory.stats import GcCycleStats

__all__ = ["GenerationalCostParameters", "GenerationalGC"]


@dataclass(frozen=True)
class GenerationalCostParameters(GcCostParameters):
    """Tick charges for the generational collector.

    Inherits the base parameters (used for major cycles) and adds the
    minor-cycle economics.
    """

    minor_base_ticks: int = 400
    """Fixed charge per minor cycle (cheaper pause setup)."""

    tenured_card_ticks_per_object: int = 1
    """Minor-cycle charge per tenured object (card/remembered-set scan
    standing in for not re-marking the old generation)."""


class GenerationalGC(MarkSweepGC):
    """Nursery + tenured generations over the same simulated heap."""

    def __init__(self, heap: SimHeap,
                 semantic_maps: Optional[SemanticMapRegistry] = None,
                 charge: Optional[Callable[[int], None]] = None,
                 costs: Optional[GenerationalCostParameters] = None,
                 tenure_age: int = 2, attribute: bool = True) -> None:
        super().__init__(heap, semantic_maps, charge,
                         costs or GenerationalCostParameters(),
                         attribute=attribute)
        if tenure_age < 1:
            raise ValueError("tenure age must be >= 1")
        self.tenure_age = tenure_age
        self._ages: Dict[int, int] = {}
        self._tenured: Set[int] = set()
        self.minor_cycles = 0
        self.major_cycles = 0
        self.promoted_objects = 0

    # ------------------------------------------------------------------
    # Generation tracking
    # ------------------------------------------------------------------
    def is_tenured(self, obj_id: int) -> bool:
        """Whether ``obj_id`` has been promoted out of the nursery."""
        return obj_id in self._tenured

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, tick: int = 0, major: bool = True) -> GcCycleStats:
        """Run one cycle: a full collection, or a nursery-only minor."""
        if major:
            return self._collect_major(tick)
        return self._collect_minor(tick)

    def _collect_major(self, tick: int) -> GcCycleStats:
        self.major_cycles += 1
        stats = super().collect(tick)
        # Anything swept is gone from both generations.
        self._tenured &= {obj.obj_id for obj in self.heap.objects()}
        for obj_id in list(self._ages):
            if not self.heap.contains(obj_id):
                del self._ages[obj_id]
        return stats

    def _collect_minor(self, tick: int) -> GcCycleStats:
        self._run_pre_cycle_hooks()
        self.minor_cycles += 1
        self.cycle_count += 1
        stats = GcCycleStats(cycle=self.cycle_count, tick=tick,
                             kind="minor")

        marked = self._mark()
        self._account(marked, stats)

        # Sweep the nursery only; unreachable tenured objects float.
        self._collecting = True
        try:
            for obj in self.heap.sweep_dead(marked, keep=self._tenured):
                if obj.on_death is not None:
                    obj.on_death(obj)
                self._ages.pop(obj.obj_id, None)
                stats.freed_bytes += obj.size
                stats.freed_objects += 1
        finally:
            self._collecting = False
        # Unreachable tenured objects legitimately float until the next
        # major cycle; post hooks receive them as the kept set.
        self._run_post_cycle_hooks(marked, stats, frozenset(self._tenured))

        # Age and promote the nursery survivors.
        promoted = 0
        for obj in self.heap.objects():
            obj_id = obj.obj_id
            if obj_id in self._tenured:
                continue
            age = self._ages.get(obj_id, 0) + 1
            if age >= self.tenure_age:
                self._tenured.add(obj_id)
                self._ages.pop(obj_id, None)
                promoted += 1
            else:
                self._ages[obj_id] = age
        self.promoted_objects += promoted

        costs = self.costs
        nursery_marked = sum(1 for obj_id in marked
                             if obj_id not in self._tenured)
        self._charge(costs.minor_base_ticks
                     + costs.mark_ticks_per_object * nursery_marked
                     + costs.tenured_card_ticks_per_object
                     * len(self._tenured)
                     + costs.sweep_ticks_per_object * stats.freed_objects
                     + costs.account_ticks_per_collection
                     * stats.collection_objects)
        self.timeline.record(stats)
        return stats
