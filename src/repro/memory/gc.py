"""Collection-aware mark-sweep garbage collector.

This reproduces the instrumented "base parallel mark and sweep" collector
of section 4.3.2.  The observable behaviour is identical to the paper's:

* **Mark** -- compute the transitive closure from the roots.
* **Account** -- using the semantic ADT maps, attribute each reachable
  collection's live/used/core bytes to its type and allocation context
  (Table 3).  Internal objects (backing arrays, entries, boxes) are
  attributed to the owning ADT, never double counted.
* **Sweep** -- free every unmarked object, running death hooks so the
  profiler can fold per-instance usage data into its allocation context
  (the paper's selective finalizers).

Parallelism in the original collector only affects wall-clock time, which
the simulation models with a configurable tick charge per marked/swept
object instead of actual threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, FrozenSet, List, Optional, Set, Tuple

from repro.memory.heap import HeapObject, SimHeap
from repro.memory.semantic_maps import SemanticMap, SemanticMapRegistry
from repro.memory.stats import GcCycleStats, HeapTimeline

__all__ = ["GcCostParameters", "MarkSweepGC"]


@dataclass(frozen=True)
class GcCostParameters:
    """Tick charges for the collector's work, per object touched.

    The defaults make GC cost proportional to live data (marking) plus
    reclaimed garbage (sweeping), which is what lets the PMD experiment
    reproduce its "fewer GCs => 8.33% faster" result.
    """

    base_ticks: int = 2_000
    mark_ticks_per_object: int = 2
    sweep_ticks_per_object: int = 1
    account_ticks_per_collection: int = 1


class MarkSweepGC:
    """Mark-sweep collector over a :class:`SimHeap` with semantic maps.

    Marking unions whole frontiers at the C level and accounting is a
    single allocation-order sweep over the heap store.  The textbook
    loops live on as :class:`repro.verify.oracle.ReferenceMarkSweepGC`,
    the executable specification this class is differentially tested
    against: identical ticks (charges are pure counts) and identical
    :class:`GcCycleStats` including dict insertion order -- both visit
    marked objects in allocation order (ids are dense and monotonically
    increasing, so ascending id order *is* allocation order).
    """

    def __init__(self, heap: SimHeap,
                 semantic_maps: Optional[SemanticMapRegistry] = None,
                 charge: Optional[Callable[[int], None]] = None,
                 costs: Optional[GcCostParameters] = None) -> None:
        self.heap = heap
        self.semantic_maps = semantic_maps or SemanticMapRegistry()
        self.timeline = HeapTimeline()
        self.costs = costs or GcCostParameters()
        self._charge = charge or (lambda ticks: None)
        self.cycle_count = 0
        self._collecting = False
        self._live_bytes_stamp: Optional[tuple] = None
        self._live_bytes_value = 0
        # Sanitizer/observer hook points.  Pre hooks run before marking;
        # post hooks run after the sweep with the marked set and any
        # deliberately kept (e.g. tenured) ids.  Hooks are observers:
        # they must not charge ticks or mutate the heap, so an attached
        # sanitizer leaves the simulation byte-identical.
        self.pre_cycle_hooks: List[Callable[["MarkSweepGC"], None]] = []
        self.post_cycle_hooks: List[
            Callable[["MarkSweepGC", Set[int], GcCycleStats,
                      FrozenSet[int]], None]] = []

    _NO_KEEP: FrozenSet[int] = frozenset()

    def _run_pre_cycle_hooks(self) -> None:
        for hook in self.pre_cycle_hooks:
            hook(self)

    def _run_post_cycle_hooks(self, marked: Set[int], stats: GcCycleStats,
                              kept: FrozenSet[int]) -> None:
        for hook in self.post_cycle_hooks:
            hook(self, marked, stats, kept)

    @property
    def collecting(self) -> bool:
        """Whether a cycle is in progress (a death hook is on the stack).

        The runtime consults this before triggering a collection from an
        allocation, so a death hook that allocates cannot start a nested
        cycle mid-sweep.
        """
        return self._collecting

    # ------------------------------------------------------------------
    # The collection cycle
    # ------------------------------------------------------------------
    def collect(self, tick: int = 0, major: bool = True) -> GcCycleStats:
        """Run one full GC cycle and record its statistics.

        Args:
            tick: Current virtual time, stamped into the cycle record so
                timelines can be plotted against time as well as cycle
                index.
            major: Accepted for collector polymorphism; the base
                mark-sweep collector always runs a full cycle.

        Returns:
            The cycle's :class:`GcCycleStats` (also appended to
            :attr:`timeline`).
        """
        self._run_pre_cycle_hooks()
        self.cycle_count += 1
        stats = GcCycleStats(cycle=self.cycle_count, tick=tick)

        marked = self._mark()
        self._account(marked, stats)
        self._collecting = True
        try:
            self._sweep(marked, stats)
        finally:
            self._collecting = False
        self._run_post_cycle_hooks(marked, stats, self._NO_KEEP)

        self._charge(self.costs.base_ticks
                     + self.costs.mark_ticks_per_object * len(marked)
                     + self.costs.sweep_ticks_per_object * stats.freed_objects
                     + self.costs.account_ticks_per_collection
                     * stats.collection_objects)
        self.timeline.record(stats)
        return stats

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    def _mark(self) -> Set[int]:
        """Transitive closure via whole-frontier set algebra.

        Instead of testing every edge against the marked set one by one,
        each round unions the frontier's complete out-edge sets and
        subtracts/intersects at the C level.  Visits the same edges, so
        the result is identical to the reference BFS.
        """
        objects = self.heap._objects
        keys = objects.keys()
        marked = {rid for rid in self.heap._roots if rid in objects}
        frontier = marked
        while frontier:
            if len(frontier) <= 8:
                # Narrow frontier (deep chains): the n-ary union's three
                # temporary sets per round cost more than they save, so
                # walk the handful of edges directly.
                fresh: Set[int] = set()
                for obj_id in frontier:
                    for ref in objects[obj_id].refs:
                        if ref not in marked and ref in objects:
                            fresh.add(ref)
            else:
                # One C-level n-ary union per round instead of one
                # update() call per frontier object.
                fresh = set()
                fresh.update(*[objects[obj_id].refs for obj_id in frontier])
                fresh -= marked
                fresh &= keys
            marked |= fresh
            frontier = fresh
        return marked

    def _account(self, marked: Set[int], stats: GcCycleStats) -> None:
        """Table 3 statistics via one allocation-order sweep.

        First find every ADT anchor and the internal objects it claims,
        then attribute bytes, so the result is independent of visit
        order.  An anchor that is itself claimed by another anchor (e.g.
        a backing implementation owned by a wrapper) is folded into its
        owner rather than reported separately.  The loop iterates the
        heap store directly (dict insertion order = allocation order =
        ascending id, matching the reference's sorted visits) and keeps
        the bookkeeping in local variables.
        """
        objects = self.heap._objects
        registry = self.semantic_maps
        lookup = registry.lookup
        version = registry._version
        anchors: List[Tuple[HeapObject, SemanticMap]] = []
        plain: List[HeapObject] = []
        plain_append = plain.append
        live_data = 0
        if len(marked) * 3 < len(objects):
            # Sparse marking: touching every stored object would dwarf
            # the work; visit the marked ids directly (sorted == same
            # allocation order).
            items = [objects[obj_id] for obj_id in sorted(marked)]
        else:
            items = objects.values() if len(marked) == len(objects) \
                else [obj for obj_id, obj in objects.items()
                      if obj_id in marked]
        for obj in items:
            live_data += obj.size
            # Inlined fast path of SemanticMapRegistry.lookup: the
            # verdict cached on the object is valid while the registry
            # version matches.
            if obj.sm_version == version:
                semantic_map = obj.sm_map
            else:
                semantic_map = lookup(obj)
            if semantic_map is None:
                plain_append(obj)
                continue
            payload = obj.payload
            if payload is not None and getattr(
                    payload, "_construction_rooted", False):
                # A half-built ADT (construction-rooted, not yet adopted
                # by an owner) cannot answer the footprint protocol yet;
                # account it as plain data for this cycle.
                plain_append(obj)
                continue
            anchors.append((obj, semantic_map))
        stats.live_data += live_data

        claimed: Set[int] = set()
        for anchor, semantic_map in anchors:
            claimed.update(semantic_map.internal_ids(anchor))

        collection_live = collection_used = collection_core = 0
        collection_objects = 0
        add_type_bytes = stats.add_type_bytes
        context = stats.context
        for anchor, semantic_map in anchors:
            if anchor.obj_id in claimed:
                continue  # owned by an enclosing ADT (wrapper)
            triple = semantic_map.footprint(anchor)
            collection_live += triple.live
            collection_used += triple.used
            collection_core += triple.core
            collection_objects += 1
            add_type_bytes(anchor.type_name, triple.live)
            context_id = semantic_map.context_id(anchor)
            if context_id is not None:
                context(context_id).add(triple.live, triple.used, triple.core)
        stats.collection_live += collection_live
        stats.collection_used += collection_used
        stats.collection_core += collection_core
        stats.collection_objects += collection_objects

        type_distribution = stats.type_distribution
        get_bytes = type_distribution.get
        for obj in plain:
            # ``plain`` preserves the visit order, so insertion order in
            # the distribution is allocation order; anchors never
            # receive plain attribution (claimed or not), internals
            # claimed by an ADT are attributed to their owner above.
            if obj.obj_id in claimed:
                continue
            name = obj.type_name
            type_distribution[name] = get_bytes(name, 0) + obj.size

    def _sweep(self, marked: Set[int], stats: GcCycleStats) -> None:
        """Free unmarked objects, invoking death hooks as they die.

        The heap partitions itself into live set and free list
        (:meth:`SimHeap.sweep_dead`); this phase only runs hooks and
        accounts the cycle statistics over the yielded dead objects.
        """
        for obj in self.heap.sweep_dead(marked):
            if obj.on_death is not None:
                obj.on_death(obj)
            stats.freed_bytes += obj.size
            stats.freed_objects += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_bytes_estimate(self) -> int:
        """Exact live bytes right now (a mark without sweeping).

        The full mark is run only when the heap has mutated since the
        last query: the result is cached keyed on the heap's mutation
        stamp (allocations, frees, root edits, reference edits), so
        back-to-back estimates -- the minimal-heap search's probing
        pattern -- cost one dict-free comparison instead of a heap walk.
        The stamp can only over-invalidate, so the estimate stays exact.
        """
        stamp = self.heap.mutation_stamp()
        if stamp == self._live_bytes_stamp:
            return self._live_bytes_value
        marked = self._mark()
        objects = self.heap._objects
        value = sum(objects[obj_id].size for obj_id in marked)
        self._live_bytes_stamp = stamp
        self._live_bytes_value = value
        return value
