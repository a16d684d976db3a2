"""The Chameleon wrappers: one level of indirection over implementations.

Section 4.1: rather than rewriting type declarations, every collection the
program allocates is "a small wrapper object" whose single field points at
the backing implementation, which can therefore be chosen per allocation
context -- by the programmer, by the offline tool, or online -- and even
swapped while the collection is live.

The wrapper is also where the *library half* of the semantic profiler
lives (Fig. 5): at construction it captures the allocation context
(subject to sampling and the cost model), consults the replacement policy,
and obtains its ``ObjectContextInfo``; every delegated operation then
updates the instance's operation counters and maximal size.  When the
wrapper's heap object dies, the GC death hook folds the record into the
context's aggregate.

Python-protocol conveniences (``__len__``, ``snapshot``) are *unrecorded*
accessors for tests and debugging; the Java-like methods (``size()``,
``get``...) are the simulated program operations that charge ticks and
update profiles.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Any, Dict, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from repro.collections.base import (CollectionImpl, CollectionKind, ListImpl,
                                    MapImpl, SetImpl)
from repro.collections.iterators import CollectionIterator, make_iterator
from repro.collections.registry import ImplementationRegistry, default_registry
from repro.memory.heap import HeapObject
from repro.memory.semantic_maps import FootprintTriple
from repro.profiler.counters import Op
from repro.runtime.context import ContextKey

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.runtime.vm import RuntimeEnvironment

__all__ = ["ChameleonCollection", "ChameleonList", "ChameleonSet",
           "ChameleonMap"]


# ----------------------------------------------------------------------
# Inline-cached dispatch
# ----------------------------------------------------------------------
#
# Each single-element recorded op goes through a per-instance *plan*: a
# tuple built lazily on first use that folds everything the plain
# charge -> record_op -> impl-op -> record_size chain would re-derive on
# every call.
#
# Plan layout (shared prefix, then kind-specific bound impl methods):
#
#   plan[0]  stamp        vm.dispatch_stamp captured at build time; the
#                         op path rebuilds when the VM bumped it
#                         (set_tracer / enable_profiling /
#                         disable_profiling), and swap_to resets the
#                         plan to None directly.
#   plan[1]  clock        vm.clock -- per-op constants are added to its
#                         `pending` accumulator (flushed at every
#                         vm.now read; see VMClock).
#   plan[2]  ticks        wrapper_delegation (+ profile_op when the
#                         instance is profiled), validated non-negative
#                         once at build time.
#   plan[3]  counts       the ObjectContextInfo's dense counter array,
#                         or None for unprofiled instances.
#   plan[4]  oci          the ObjectContextInfo itself, or None.
#   plan[5]  add_root     vm.add_root   (argument pinning, refcounted).
#   plan[6]  remove_root  vm.remove_root.
#   plan[7:] bound impl methods, one slot per recorded operation of the
#            kind (invalidated with the plan on swap_to).
#
# Ticks are charged and the op counter incremented *before* the impl
# call (a raising op stays counted), the size watermark is updated
# *after* it, and heap-object arguments are rooted for the span of the
# delegated operation in argument order.  Bulk operations (add_all,
# put_all, ...) charge through `_record` instead -- interleaving
# immediate `charge` calls with batched `pending` adds commutes, so
# mixing the two lanes is unobservable.  The plain per-op chains in
# repro.verify.oracle are the executable spec these methods are
# differentially tested against.

_OP_SIZE = Op.SIZE.index
_OP_IS_EMPTY = Op.IS_EMPTY.index
_OP_CLEAR = Op.CLEAR.index
_OP_ITERATE = Op.ITERATE.index
_OP_ITER_EMPTY = Op.ITER_EMPTY.index


class ChameleonCollection:
    """Common wrapper machinery for the three ADT kinds."""

    KIND: CollectionKind
    DEFAULT_SRC_TYPE: str

    #: Inline-cached dispatch plan (layout above).  ``None`` means
    #: "stale": the next recorded op rebuilds it.
    _plan: Optional[tuple] = None

    def __new__(cls, vm: "RuntimeEnvironment", *args: Any, **kwargs: Any):
        # A VM may substitute subclasses for the wrappers built on it
        # (the test oracle's reference VM does); getattr keeps duck-typed
        # stand-in VMs working.
        variants = getattr(vm, "wrapper_variants", None)
        if variants:
            cls = variants.get(cls, cls)
        return object.__new__(cls)

    def __init__(self, vm: "RuntimeEnvironment", *,
                 src_type: Optional[str] = None,
                 initial_capacity: Optional[int] = None,
                 context: Optional[ContextKey] = None,
                 impl: Optional[str] = None,
                 copy_from: Optional["ChameleonCollection"] = None,
                 registry: Optional[ImplementationRegistry] = None,
                 use_shared_empty_iterator: bool = False,
                 impl_kwargs: Optional[Dict[str, Any]] = None) -> None:
        """Sampling decision, context capture, policy consultation, impl
        creation, profiler registration, wrapper heap allocation,
        adoption, copy fill and tracer callback, in that order.

        The wrapper object size is computed once per VM, and the policy
        consultation is skipped outright when the VM has no policy.
        """
        self.vm = vm
        self.registry = registry = registry or default_registry()
        self.src_type = src_type = src_type or self.DEFAULT_SRC_TYPE
        self.use_shared_empty_iterator = use_shared_empty_iterator
        self._explicit_capacity = initial_capacity

        profiler = vm.profiler
        if vm.profiling_enabled:
            profile = profiler.should_sample(src_type)
            if not profile:
                profiler.on_unsampled_allocation(src_type)
        else:
            profile = False

        # Not inlined: capture_context charges per *walked* stack frame
        # (internal frames included), so the helper frame is part of the
        # priced semantics -- eliding it would change the tick total.
        self.context_id = context_id = self._resolve_context(context,
                                                             profile)
        policy = vm.policy

        impl_name = impl
        capacity = initial_capacity
        if policy is None:
            merged_kwargs = impl_kwargs
        else:
            choice = vm.choose_implementation(src_type, context_id)
            merged_kwargs = dict(impl_kwargs or {})
            if choice is not None:
                if impl_name is None and choice.impl_name is not None:
                    impl_name = choice.impl_name
                if choice.initial_capacity is not None:
                    capacity = choice.initial_capacity
                if choice.impl_kwargs:
                    merged_kwargs.update(choice.impl_kwargs)
        if impl_name is None:
            impl_name = registry.default_impl_for(src_type)

        if merged_kwargs:
            self.impl: CollectionImpl = registry.create(
                vm, impl_name, kind=self.KIND, initial_capacity=capacity,
                context_id=context_id, **merged_kwargs)
        else:
            self.impl = registry.create(
                vm, impl_name, kind=self.KIND, initial_capacity=capacity,
                context_id=context_id)

        # Per-cycle footprint caches, keyed on the impl's structural
        # token (None = impl opted out of caching).  Invalidated on
        # swap_to, which replaces the impl outright.
        self._fp_token: Optional[int] = None
        self._fp_triple: Optional[FootprintTriple] = None
        self._ids_token: Optional[int] = None
        self._ids_list: List[int] = []

        self._oci = None
        on_death = None
        if profile:
            oci = self._oci = profiler.on_allocation(
                context_id, src_type, impl_name,
                initial_capacity=initial_capacity)
            on_death = lambda heap_obj: profiler.on_death(oci)

        try:
            wrapper_size = vm._wrapper_size
        except AttributeError:
            wrapper_size = vm._wrapper_size = \
                vm.model.object_size(ref_fields=1)
        heap_obj = self.heap_obj = vm.allocate(
            src_type, wrapper_size, payload=self,
            context_id=context_id, on_death=on_death)
        heap_obj.add_ref(self.impl.anchor_id)
        self.impl.adopt()

        if copy_from is not None:
            self._fill_from(copy_from)

        # Observation hook (repro.verify trace recording).  Last, so the
        # tracer sees a fully constructed wrapper; the tracer must stay a
        # pure observer (no charges, no simulated allocation).
        tracer = vm.tracer
        if tracer is not None:
            tracer.on_collection_created(self)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _resolve_context(self, explicit: Optional[ContextKey],
                         profile: bool) -> Optional[int]:
        """Capture/intern the allocation context when anything needs it.

        Instrumented capture (profiling or online policy) is charged to
        the clock; offline-policy lookup models a source edit and is free.
        """
        vm = self.vm
        if explicit is not None:
            return vm.capture_allocation_context(explicit=explicit)
        online = (vm.policy is not None
                  and vm.policy.requires_runtime_capture)
        if profile or vm.policy is not None:
            return vm.capture_allocation_context(
                charged=profile or online)
        return None

    def _fill_from(self, source: "ChameleonCollection") -> None:
        """Copy-constructor fill: counts as ``copied`` on the source and
        as *no* operations on the new collection (section 3.2.2)."""
        source.record_copied()
        self._bulk_absorb(source)
        self._after_mutation()

    def _bulk_absorb(self, source: "ChameleonCollection") -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Profiling plumbing
    # ------------------------------------------------------------------
    def _record(self, op: Op) -> None:
        self.vm.charge(self.vm.costs.wrapper_delegation)
        if self._oci is not None:
            if self.vm.costs.profile_op:
                self.vm.charge(self.vm.costs.profile_op)
            self._oci.record_op(op)

    def _after_mutation(self) -> None:
        if self._oci is not None:
            self._oci.record_size(self.impl.size)

    def _pin_args(self, values: Iterable[Any]) -> List[HeapObject]:
        """Model Java stack roots for heap-object arguments.

        The caller holds its argument in a local for the duration of the
        call, keeping it reachable even while the ADT allocates (array
        growth, entry objects) *before* linking the element in.  The
        simulated heap cannot see Python locals, so the wrapper roots
        heap-object arguments for the span of the delegated operation.
        """
        pinned = [v for v in values if isinstance(v, HeapObject)]
        for value in pinned:
            self.vm.add_root(value)
        return pinned

    def _unpin_args(self, pinned: List[HeapObject]) -> None:
        for value in pinned:
            self.vm.remove_root(value)

    def record_copied(self) -> None:
        """This collection was the source of an addAll/putAll/copy-ctor."""
        if self._oci is not None:
            self._oci.record_copied()

    @property
    def object_info(self):
        """The instance's profiling record, if it was sampled."""
        return self._oci

    def _plan_prefix(self) -> tuple:
        vm = self.vm
        costs = vm.costs
        oci = self._oci
        delegation = costs.wrapper_delegation
        profile_op = costs.profile_op if oci is not None else 0
        if delegation < 0 or profile_op < 0:
            # The validated VMClock.charge surfaces negative ablation
            # constants on the op itself; a batched accumulator must
            # never go negative silently.
            raise ValueError("cannot charge negative ticks")
        counts = oci.counts if oci is not None else None
        # Root pins bind the heap's methods directly: vm.add_root /
        # vm.remove_root are pure one-line delegates to them.
        heap = vm.heap
        return (vm.dispatch_stamp, vm.clock, delegation + profile_op,
                counts, oci, heap.add_root, heap.remove_root)

    def _build_plan(self) -> tuple:  # pragma: no cover - kind-specific
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def pin(self) -> "ChameleonCollection":
        """Register this collection as a GC root; returns self."""
        self.vm.add_root(self.heap_obj)
        return self

    def unpin(self) -> None:
        """Drop the root registration (the collection may now die)."""
        self.vm.remove_root(self.heap_obj)

    def swap_to(self, impl_name: str,
                initial_capacity: Optional[int] = None,
                impl_kwargs: Optional[Dict[str, Any]] = None) -> None:
        """Swap the backing implementation while live.

        Elements are migrated through charged operations (the real cost of
        an online conversion); the old implementation and its internals
        become garbage.
        """
        capacity = initial_capacity
        if capacity is None:
            capacity = max(self.impl.size, 1)
        new_impl = self.registry.create(
            self.vm, impl_name, kind=self.KIND, initial_capacity=capacity,
            context_id=self.context_id, **(impl_kwargs or {}))
        old_impl = self.impl
        self.impl = new_impl
        self._fp_token = None
        self._ids_token = None
        # The dispatch plan folds bound methods of the *old* impl;
        # drop it so the next recorded op rebuilds against the new one.
        self._plan = None
        self._migrate(old_impl, new_impl)
        self.heap_obj.remove_ref(old_impl.anchor_id)
        self.heap_obj.add_ref(new_impl.anchor_id)
        new_impl.adopt()
        if self._oci is not None:
            self._oci.record_swap()
            self._oci.impl_name = impl_name

    def _migrate(self, old_impl: CollectionImpl,
                 new_impl: CollectionImpl) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared recorded operations
    # ------------------------------------------------------------------
    def size(self) -> int:
        """Recorded ``size()`` operation."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_OP_SIZE] += 1
        return self.impl.size

    def is_empty(self) -> bool:
        """Recorded ``isEmpty()`` operation."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_OP_IS_EMPTY] += 1
        return self.impl.is_empty

    def clear(self) -> None:
        """Recorded ``clear()`` operation."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        impl = self.impl
        impl.clear()
        oci = plan[4]
        if oci is not None:
            # clear() cannot fail mid-way, so count + size fuse into
            # one post-op call.
            oci.record_op_size(_OP_CLEAR, impl.size)

    def iterate(self) -> CollectionIterator:
        """Recorded iterator creation over the collection's values."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        impl = self.impl
        empty = impl.is_empty
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_OP_ITERATE] += 1
            if empty:
                counts[_OP_ITER_EMPTY] += 1
        return make_iterator(self.vm, impl.iter_values(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)

    # ------------------------------------------------------------------
    # Unrecorded conveniences (tests/debugging only)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.impl.size

    def __iter__(self) -> Iterator[Any]:
        return self.iterate()

    def snapshot(self) -> List[Any]:
        """Current values without charging ticks or recording ops."""
        return self.impl.peek_values()

    def footprint(self) -> FootprintTriple:
        """Current ADT footprint including the wrapper object."""
        return self.adt_footprint()

    # ------------------------------------------------------------------
    # AdtFootprint protocol (the wrapper anchors the whole ADT)
    # ------------------------------------------------------------------
    def adt_footprint(self) -> FootprintTriple:
        token = self.impl.adt_footprint_token()
        if token is not None and token == self._fp_token:
            return self._fp_triple
        inner = self.impl.adt_footprint()
        triple = FootprintTriple(inner.live + self.heap_obj.size,
                                 inner.used + self.heap_obj.size,
                                 inner.core)
        if token is not None:
            self._fp_token = token
            self._fp_triple = triple
        return triple

    def adt_internal_ids(self) -> Iterable[int]:
        token = self.impl.adt_footprint_token()
        if token is not None and token == self._ids_token:
            return self._ids_list
        ids = [self.impl.anchor_id]
        ids.extend(self.impl.adt_internal_ids())
        if token is not None:
            self._ids_token = token
            self._ids_list = ids
        return ids

    def adt_element_count(self) -> int:
        return self.impl.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} {self.src_type}->"
                f"{self.impl.IMPL_NAME} size={self.impl.size}>")


class ChameleonList(ChameleonCollection):
    """The wrapped List ADT."""

    KIND = CollectionKind.LIST
    DEFAULT_SRC_TYPE = "ArrayList"

    impl: ListImpl

    def _build_plan(self) -> tuple:
        impl = self.impl
        plan = self._plan_prefix() + (
            impl.add, impl.add_at, impl.get, impl.set_at, impl.remove_at,
            impl.remove_first, impl.remove_value, impl.contains,
            impl.index_of)
        self._plan = plan
        return plan

    def add(self, value: Any, _idx: int = Op.ADD.index) -> None:
        """Append ``value`` (``add(Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            plan[5](value)
            try:
                plan[7](value)
            finally:
                plan[6](value)
        else:
            plan[7](value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size

    def add_at(self, index: int, value: Any,
               _idx: int = Op.ADD_INDEX.index) -> None:
        """Insert at position (``add(int, Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            plan[5](value)
            try:
                plan[8](index, value)
            finally:
                plan[6](value)
        else:
            plan[8](index, value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size

    def add_all(self, source: Union["ChameleonCollection", Iterable[Any]],
                ) -> None:
        """Append every element of ``source`` (``addAll(Collection)``).

        Records one ``addAll`` here and one ``copied`` on a wrapped
        source -- both sides of the interaction, per section 3.2.2.
        """
        self._record(Op.ADD_ALL)
        values, pinned = self._source_values(source)
        try:
            for value in values:
                self.impl.add(value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def add_all_at(self, index: int,
                   source: Union["ChameleonCollection", Iterable[Any]],
                   ) -> None:
        """Insert every element of ``source`` at ``index``."""
        self._record(Op.ADD_ALL_INDEX)
        values, pinned = self._source_values(source)
        try:
            for offset, value in enumerate(values):
                self.impl.add_at(index + offset, value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def _source_values(self, source):
        """``(values, pinned)`` for a bulk insert.

        Elements of a wrapped source stay reachable through the source
        itself; plain Python iterables get stack-root treatment.
        """
        if isinstance(source, ChameleonCollection):
            source.record_copied()
            return source.impl.iter_values(), []
        values = list(source)
        return values, self._pin_args(values)

    def get(self, index: int, _idx: int = Op.GET_INDEX.index) -> Any:
        """Positional read (``get(int)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[9](index)

    def set_at(self, index: int, value: Any,
               _idx: int = Op.SET_INDEX.index) -> Any:
        """Positional replace (``set(int, Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        old = plan[10](index, value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_at(self, index: int,
                  _idx: int = Op.REMOVE_INDEX.index) -> Any:
        """Positional removal (``remove(int)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        old = plan[11](index)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_first(self, _idx: int = Op.REMOVE_FIRST.index) -> Any:
        """Head removal (``removeFirst()``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        old = plan[12]()
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_value(self, value: Any,
                     _idx: int = Op.REMOVE_OBJECT.index) -> bool:
        """First-occurrence removal (``remove(Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        removed = plan[13](value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return removed

    def contains(self, value: Any, _idx: int = Op.CONTAINS.index) -> bool:
        """Membership test (``contains(Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[14](value)

    def index_of(self, value: Any, _idx: int = Op.INDEX_OF.index) -> int:
        """First-occurrence search (``indexOf(Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[15](value)

    def to_list(self) -> List[Any]:
        """Recorded ``toArray()``: a charged copy of the contents."""
        self._record(Op.TO_ARRAY)
        return list(self.impl.iter_values())

    def _bulk_absorb(self, source: ChameleonCollection) -> None:
        for value in source.impl.iter_values():
            self.impl.add(value)

    def _migrate(self, old_impl: CollectionImpl,
                 new_impl: CollectionImpl) -> None:
        for value in old_impl.iter_values():
            new_impl.add(value)


class ChameleonSet(ChameleonCollection):
    """The wrapped Set ADT."""

    KIND = CollectionKind.SET
    DEFAULT_SRC_TYPE = "HashSet"

    impl: SetImpl

    def _build_plan(self) -> tuple:
        impl = self.impl
        plan = self._plan_prefix() + (
            impl.add, impl.remove_value, impl.contains)
        self._plan = plan
        return plan

    def add(self, value: Any, _idx: int = Op.ADD.index) -> bool:
        """Insert ``value``; False if already present."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            plan[5](value)
            try:
                added = plan[7](value)
            finally:
                plan[6](value)
        else:
            added = plan[7](value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return added

    def add_all(self, source: Union["ChameleonCollection", Iterable[Any]],
                ) -> None:
        """Insert every element of ``source``."""
        self._record(Op.ADD_ALL)
        if isinstance(source, ChameleonCollection):
            source.record_copied()
            values, pinned = source.impl.iter_values(), []
        else:
            values = list(source)
            pinned = self._pin_args(values)
        try:
            for value in values:
                self.impl.add(value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def remove_value(self, value: Any,
                     _idx: int = Op.REMOVE_OBJECT.index) -> bool:
        """Remove ``value``; True if it was present."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        removed = plan[8](value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return removed

    def contains(self, value: Any, _idx: int = Op.CONTAINS.index) -> bool:
        """Membership test."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[9](value)

    def _bulk_absorb(self, source: ChameleonCollection) -> None:
        for value in source.impl.iter_values():
            self.impl.add(value)

    def _migrate(self, old_impl: CollectionImpl,
                 new_impl: CollectionImpl) -> None:
        for value in old_impl.iter_values():
            new_impl.add(value)


class ChameleonMap(ChameleonCollection):
    """The wrapped Map ADT."""

    KIND = CollectionKind.MAP
    DEFAULT_SRC_TYPE = "HashMap"

    impl: MapImpl

    def _build_plan(self) -> tuple:
        impl = self.impl
        plan = self._plan_prefix() + (
            impl.put, impl.get, impl.remove_key, impl.contains_key,
            impl.contains_value)
        self._plan = plan
        return plan

    def put(self, key: Any, value: Any, _idx: int = Op.PUT.index) -> Any:
        """Associate ``key`` with ``value``; returns the previous value."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        key_pinned = isinstance(key, HeapObject)
        value_pinned = isinstance(value, HeapObject)
        if key_pinned or value_pinned:
            if key_pinned:
                plan[5](key)
            if value_pinned:
                plan[5](value)
            try:
                old = plan[7](key, value)
            finally:
                if key_pinned:
                    plan[6](key)
                if value_pinned:
                    plan[6](value)
        else:
            old = plan[7](key, value)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def get(self, key: Any, _idx: int = Op.GET_OBJECT.index) -> Any:
        """Lookup (``get(Object)``)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[8](key)

    def remove_key(self, key: Any, _idx: int = Op.REMOVE_KEY.index) -> Any:
        """Remove ``key``'s mapping; returns the removed value."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        old = plan[9](key)
        oci = plan[4]
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def contains_key(self, key: Any,
                     _idx: int = Op.CONTAINS_KEY.index) -> bool:
        """Key-membership test."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[10](key)

    def contains_value(self, value: Any,
                       _idx: int = Op.CONTAINS_VALUE.index) -> bool:
        """Value-membership test (linear)."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_idx] += 1
        return plan[11](value)

    def put_all(self, source: Union["ChameleonMap", Dict[Any, Any]]) -> None:
        """Copy every mapping of ``source`` in (``putAll(Map)``)."""
        self._record(Op.PUT_ALL)
        if isinstance(source, ChameleonMap):
            source.record_copied()
            items, pinned = source.impl.iter_items(), []
        else:
            items = list(source.items())
            pinned = self._pin_args(
                part for pair in items for part in pair)
        try:
            for key, value in items:
                self.impl.put(key, value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def iterate_items(self) -> CollectionIterator:
        """Recorded iterator over ``(key, value)`` pairs."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        impl = self.impl
        empty = impl.is_empty
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_OP_ITERATE] += 1
            if empty:
                counts[_OP_ITER_EMPTY] += 1
        return make_iterator(self.vm, impl.iter_items(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)

    def iterate_keys(self) -> CollectionIterator:
        """Recorded iterator over keys."""
        plan = self._plan
        if plan is None or plan[0] is not self.vm.dispatch_stamp:
            plan = self._build_plan()
        impl = self.impl
        empty = impl.is_empty
        plan[1].pending += plan[2]
        counts = plan[3]
        if counts is not None:
            counts[_OP_ITERATE] += 1
            if empty:
                counts[_OP_ITER_EMPTY] += 1
        return make_iterator(self.vm, impl.iter_keys(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)

    def snapshot_items(self) -> List[Tuple[Any, Any]]:
        """Current mappings without charging or recording."""
        return self.impl.peek_items()

    def _bulk_absorb(self, source: ChameleonCollection) -> None:
        for key, value in source.impl.iter_items():
            self.impl.put(key, value)

    def _migrate(self, old_impl: CollectionImpl,
                 new_impl: CollectionImpl) -> None:
        for key, value in old_impl.iter_items():
            new_impl.put(key, value)
