"""The runtime environment: heap, collector, clock, profiler -- wired.

:class:`RuntimeEnvironment` is the simulation's stand-in for the paper's
instrumented J9 JVM.  It owns

* the simulated heap and its byte limit (driving the minimal-heap-size
  experiments of Fig. 6),
* the collection-aware mark-sweep collector and its per-cycle timeline,
* the virtual clock and cost model (driving the running-time experiments
  of Fig. 7),
* the allocation-context registry and capture policy,
* the semantic profiler,
* and the (optional) replacement policy consulted at collection
  allocation.

Allocation-context capture is priced asymmetrically, mirroring the paper:
capture performed *for instrumentation* (profiling, online replacement) is
charged through the cost model, while capture performed only to look up an
offline-applied replacement policy is free -- an offline fix is a source
edit, and the re-run program pays nothing at runtime for it.

Allocation has one implementation, bounded heap or not: the closure
:meth:`RuntimeEnvironment._install_allocate` binds, which leaves its
straight line only to collect for an allocation that would overflow the
limit.  The general one-call-per-step allocator survives only as the
test oracle's ``ReferenceRuntimeEnvironment.allocate``.

A VM is one large Python reference cycle while it runs (the allocator
closure captures it; live collections and their heap objects point at
each other).  The tool's run drivers :meth:`RuntimeEnvironment.release`
the VM when its run ends, after which dropping it frees it by reference
counting.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Protocol, runtime_checkable)

from repro.memory.gc import MarkSweepGC
from repro.memory.heap import HeapObject, OutOfMemoryError, SimHeap
from repro.memory.layout import MemoryModel, ObjectSizes, RefArraySizes
from repro.memory.semantic_maps import SemanticMapRegistry
from repro.memory.stats import HeapTimeline
from repro.runtime.context import (DEFAULT_CONTEXT_DEPTH, ContextKey,
                                   ContextRegistry, capture_context)
from repro.runtime.costs import CostModel, VMClock

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.profiler.profiler import SemanticProfiler

__all__ = ["ImplementationChoice", "ReplacementPolicyProtocol",
           "RuntimeEnvironment", "add_vm_created_hook",
           "remove_vm_created_hook"]


#: Observers invoked with every freshly constructed RuntimeEnvironment.
#: The verify subsystem uses this to auto-attach its heap sanitizer to
#: every VM an experiment harness creates, without the harness knowing.
#: Hooks must be pure observers (no tick charges, no heap mutation).
_vm_created_hooks: List[Callable[["RuntimeEnvironment"], None]] = []


def add_vm_created_hook(hook: Callable[["RuntimeEnvironment"], None]) -> None:
    """Register ``hook`` to run on every new :class:`RuntimeEnvironment`."""
    _vm_created_hooks.append(hook)


def remove_vm_created_hook(hook: Callable[["RuntimeEnvironment"], None],
                           ) -> None:
    """Unregister a hook added via :func:`add_vm_created_hook`."""
    _vm_created_hooks.remove(hook)


_RELEASED = ("{} on a released RuntimeEnvironment: its run has ended and "
             "RuntimeEnvironment.release() dropped its live objects")


def _released_allocate(type_name: str, size: int, **_: Any) -> HeapObject:
    """The ``allocate`` of a released VM.  A plain function, not a bound
    method or closure, so it holds no reference back to the VM."""
    raise RuntimeError(_RELEASED.format("allocate"))


class ImplementationChoice:
    """One replacement decision: implementation, capacity, and any
    implementation-specific parameters (e.g. a SizeAdapting conversion
    threshold)."""

    __slots__ = ("impl_name", "initial_capacity", "impl_kwargs")

    def __init__(self, impl_name: Optional[str] = None,
                 initial_capacity: Optional[int] = None,
                 impl_kwargs: Optional[dict] = None) -> None:
        self.impl_name = impl_name
        self.initial_capacity = initial_capacity
        self.impl_kwargs = impl_kwargs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ImplementationChoice({self.impl_name!r}, "
                f"capacity={self.initial_capacity!r}, "
                f"kwargs={self.impl_kwargs!r})")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ImplementationChoice)
                and self.impl_name == other.impl_name
                and self.initial_capacity == other.initial_capacity
                and self.impl_kwargs == other.impl_kwargs)


@runtime_checkable
class ReplacementPolicyProtocol(Protocol):
    """Anything that can pick an implementation for an allocation."""

    def choose(self, src_type: str, context_id: Optional[int]
               ) -> Optional[ImplementationChoice]:
        """The choice for this allocation, or ``None`` for the default."""

    @property
    def requires_runtime_capture(self) -> bool:
        """True when the policy decides *during* the run (online mode) and
        allocation-context capture must therefore be charged."""


class RuntimeEnvironment:
    """The simulated VM every workload and collection runs inside."""

    #: Wrapper subclasses to construct in place of the requested wrapper
    #: classes (consulted by ``ChameleonCollection.__new__``).  Empty
    #: here; the reference VM of :mod:`repro.verify.oracle` maps each
    #: wrapper to its per-op twin.
    wrapper_variants: Dict[type, type] = {}

    def __init__(self,
                 model: Optional[MemoryModel] = None,
                 cost_model: Optional[CostModel] = None,
                 heap_limit: Optional[int] = None,
                 gc_threshold_bytes: Optional[int] = 256 * 1024,
                 context_depth: int = DEFAULT_CONTEXT_DEPTH,
                 profiler: Optional["SemanticProfiler"] = None,
                 policy: Optional[ReplacementPolicyProtocol] = None,
                 gc_overhead_fraction: float = 0.04,
                 gc_overhead_limit: int = 4,
                 collector_factory: Optional[Callable[..., MarkSweepGC]]
                 = None,
                 gc_attribution: bool = True) -> None:
        self.model = model or MemoryModel.for_32bit()
        self.costs = cost_model or CostModel()
        self.clock = VMClock()
        # Shortcut the charge chain: `vm.charge` IS the clock's bound
        # `charge` method (an instance attribute, not a def on this
        # class), saving a Python frame on one of the hottest calls in
        # the run phase.  There is deliberately no `def charge` below:
        # a method would be dead code permanently shadowed by this
        # binding.
        self.charge = self.clock.charge
        self.heap = SimHeap(self.model, limit=heap_limit)
        #: Plain-object sizes under :attr:`model`, by field shape: each
        #: shape is sized once per VM instead of once per allocation.
        self.object_sizes = ObjectSizes(self.model)
        #: ``Object[]`` sizes under :attr:`model`, by length: collection
        #: backing arrays and bucket tables, sized once per length.
        self.ref_array_sizes = RefArraySizes(self.model)
        self.semantic_maps = SemanticMapRegistry()
        factory = collector_factory or MarkSweepGC
        # ``gc_attribution=False`` builds a counting collector (see
        # repro.memory.gc): same ticks and cycles, no Table 3 breakdown.
        self.gc = factory(self.heap, self.semantic_maps,
                          charge=self.clock.charge,
                          attribute=gc_attribution)
        from repro.profiler.profiler import SemanticProfiler

        self.contexts = ContextRegistry(depth=context_depth)
        self.profiler = profiler or SemanticProfiler()
        self.policy = policy
        self.profiling_enabled = profiler is not None
        self.gc_threshold_bytes = gc_threshold_bytes
        self._bytes_since_gc = 0
        self.oom_raised = False
        self.released = False
        # "GC overhead limit exceeded" semantics: a run whose
        # limit-triggered collections repeatedly reclaim almost nothing is
        # declared out of memory, exactly as the HotSpot/J9 collectors do.
        # This is what gives the minimal-heap measure a small, realistic
        # operating headroom instead of a degenerate collect-per-allocation
        # regime.
        self.gc_overhead_fraction = gc_overhead_fraction
        self.gc_overhead_limit = gc_overhead_limit
        self._low_yield_gcs = 0
        # Optional trace recorder (repro.verify).  Collection wrappers
        # report their construction here; the recorder then observes the
        # wrapper's operations without charging ticks, so a recorded run
        # is byte-identical to a plain one.
        self.tracer: Optional[Any] = None
        # Collection wrappers add these per-op constants to the batched
        # `clock.pending` lane, which must never go negative; like the
        # allocator's constants, they are validated once, here.
        if self.costs.wrapper_delegation < 0 or self.costs.profile_op < 0:
            raise ValueError("cannot charge negative ticks")
        # Same instance-attribute trick as `charge`: the allocator is a
        # closure bound here, before the creation hooks run, so a hook
        # may wrap it.
        self._install_allocate()
        for hook in _vm_created_hooks:
            hook(self)

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time in ticks.

        This is the simulation's *only* clock read point; it flushes any
        batched charges first, so every observer (GC cycle stamps,
        timeline snapshots, run metrics) sees every charge made so far.
        """
        return self.clock.now

    # ------------------------------------------------------------------
    # Allocation and GC
    # ------------------------------------------------------------------
    def _install_allocate(self) -> None:
        """Install the VM's allocator as the ``allocate`` attribute.

        A collection runs when the periodic allocation threshold fills
        (the young-generation analog) or when the byte limit would be
        exceeded; if the limit still cannot be met after collecting,
        :meth:`_make_room` raises :class:`OutOfMemoryError` -- the
        signal the minimal-heap search binary-searches against.

        The call chain (``model.align`` -> overflow test ->
        ``allocation_ticks`` -> ``charge`` -> ``heap.allocate``) is
        folded into local arithmetic, one batched ``clock.pending`` add
        (hence the constants' sign check, made once here), and an
        inlined heap store that mirrors ``SimHeap.allocate`` field for
        field (``test_fast_allocate_matches_reference_fields`` pins the
        list).  ``heap.limit``, ``gc_threshold_bytes`` and
        ``_bytes_since_gc`` stay live attribute reads because callers
        may mutate them mid-run.
        """
        vm = self
        heap = self.heap
        gc = self.gc
        clock = self.clock
        objects = heap._objects
        mask = self.model.alignment - 1
        alloc_base = self.costs.alloc_base
        alloc_per_16 = self.costs.alloc_per_16_bytes
        if alloc_base < 0 or alloc_per_16 < 0:
            raise ValueError("cannot charge negative ticks")
        new_object = HeapObject.__new__

        def allocate(type_name: str, size: int, *,
                     payload: Any = None,
                     context_id: Optional[int] = None,
                     on_death: Optional[Callable[[HeapObject], None]]
                     = None) -> HeapObject:
            if size < 0:
                raise ValueError("allocation size cannot be negative")
            aligned = (size + mask) & ~mask
            # Allocation from inside a death hook never starts a nested
            # cycle mid-sweep; the object is picked up by the next cycle.
            # (The field behind `gc.collecting`, read without the
            # property call.)
            if not gc._collecting:
                threshold = vm.gc_threshold_bytes
                if threshold is not None and vm._bytes_since_gc >= threshold:
                    # Periodic (young-generation analog) cycles are minor
                    # under a generational collector.  collect() resets
                    # _bytes_since_gc and, via the `tick=now` stamp,
                    # flushes pending charges -- the GC-trigger flush
                    # boundary of the batching contract.
                    vm.collect(major=False)
                limit = heap.limit
                if limit is not None and (heap.total_allocated_bytes
                                          - heap.total_freed_bytes
                                          + aligned > limit):
                    vm._make_room(aligned, limit)
            vm._bytes_since_gc += aligned
            clock.pending += alloc_base + (aligned // 16) * alloc_per_16
            obj = new_object(HeapObject)
            obj.obj_id = obj_id = heap._next_id
            obj.type_name = type_name
            obj.size = aligned
            obj.refs = {}
            obj.payload = payload
            obj.context_id = context_id
            obj.on_death = on_death
            obj.sm_version = 0
            obj.sm_map = None
            heap._next_id = obj_id + 1
            objects[obj_id] = obj
            heap.total_allocated_bytes += aligned
            heap.total_allocated_objects += 1
            return obj

        self.allocate = allocate

    def _make_room(self, aligned: int, limit: int) -> None:
        """Collect for an allocation of ``aligned`` bytes that would
        exceed ``limit``; raise :class:`OutOfMemoryError` if it still
        does not fit, or if too many such heap-pressure (major) cycles
        in a row reclaimed almost nothing."""
        stats = self.collect()
        heap = self.heap
        if heap.occupied_bytes + aligned > limit:
            self.oom_raised = True
            raise OutOfMemoryError(aligned, heap.occupied_bytes, limit)
        if stats.freed_bytes < self.gc_overhead_fraction * limit:
            self._low_yield_gcs += 1
            if self._low_yield_gcs >= self.gc_overhead_limit:
                self.oom_raised = True
                raise OutOfMemoryError(aligned, heap.occupied_bytes, limit)
        else:
            self._low_yield_gcs = 0

    def allocate_data(self, type_name: str = "AppData", ref_fields: int = 0,
                      int_fields: int = 0,
                      context_id: Optional[int] = None) -> HeapObject:
        """Convenience: allocate a plain application record."""
        size = self.model.object_size(ref_fields=ref_fields,
                                      int_fields=int_fields)
        return self.allocate(type_name, size, context_id=context_id)

    def collect(self, major: bool = True):
        """Run one GC cycle now; returns the cycle's statistics.

        ``major`` selects the cycle flavour under a generational
        collector; the base mark-sweep collector ignores it.
        """
        if self.released:
            raise RuntimeError(_RELEASED.format("collect"))
        self._bytes_since_gc = 0
        return self.gc.collect(tick=self.now, major=major)

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def add_root(self, obj: HeapObject) -> None:
        """Pin ``obj`` as a named GC root (see :meth:`SimHeap.add_root`)."""
        self.heap.add_root(obj)

    def remove_root(self, obj: HeapObject) -> None:
        """Unpin ``obj``."""
        self.heap.remove_root(obj)

    # ------------------------------------------------------------------
    # Allocation contexts
    # ------------------------------------------------------------------
    def capture_allocation_context(self, explicit: Optional[ContextKey] = None,
                                   charged: bool = True, skip: int = 0,
                                   ) -> int:
        """Capture (or intern) an allocation context.

        Args:
            explicit: A pre-built key (factory-provided context); interning
                it is free.
            charged: Whether to bill the stack walk to the virtual clock.
                Instrumented capture (profiling / online mode) is charged;
                looking up an offline policy models a source edit and is
                not.
            skip: Extra caller frames to discard before the walk; the
                library's own frames are filtered out regardless, so
                direct callers can leave this at 0.
        """
        if explicit is not None:
            return self.contexts.intern(explicit)
        key, walked = capture_context(self.contexts.depth, skip=skip + 1)
        if charged:
            self.charge(self.costs.context_capture_ticks(walked))
        return self.contexts.intern_captured(key)

    def choose_implementation(self, src_type: str,
                              context_id: Optional[int],
                              ) -> Optional[ImplementationChoice]:
        """Consult the replacement policy, charging online lookups."""
        if self.policy is None:
            return None
        if self.policy.requires_runtime_capture:
            self.charge(self.costs.policy_lookup)
        return self.policy.choose(src_type, context_id)

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """End-of-run bookkeeping: final GC, flush live profiles."""
        # Fold batched charges first (collect() would do it
        # through its `tick=now` stamp anyway; being explicit keeps the
        # end-of-run flush boundary visible and hook-order independent).
        self.clock.flush()
        self.collect()
        if self.profiling_enabled:
            self.profiler.flush()

    def release(self) -> None:
        """Let reference counting free this finished run.

        Extends the sweep's release contract (:meth:`SimHeap.sweep_dead`)
        to the objects still live when the run ends: each drops its
        payload, death hook and semantic-map cache
        (:meth:`HeapObject.release`).  It also breaks the VM's own
        cycles: the allocator closure, which captures the VM, and the
        policy, which may point back at it (``OnlinePolicy._vm``).
        Afterwards nothing reaches the VM from inside itself, so dropping
        the last outside reference frees it without CPython's cyclic
        collector.

        A released VM still answers its clock (``now``), ``timeline``,
        ``profiler``, ``contexts``, the heap's totals and roots, and each
        stored object's id, type, size and refs -- everything
        ``RunMetrics.from_vm``, ``build_report`` and ``heap_histogram``
        read.  :meth:`collect` and ``allocate`` raise ``RuntimeError``.
        Releasing twice is harmless.
        """
        if self.released:
            return
        self.released = True
        self.heap.release()
        self.allocate = _released_allocate
        self.policy = None

    @property
    def timeline(self) -> HeapTimeline:
        """The collector's per-cycle statistics for this run."""
        return self.gc.timeline
