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


# Single-element recorded ops add the instance's fused per-op constant to
# `clock.pending` (folded at every vm.now read; see VMClock) and bump the
# op counter *before* the impl call, so a raising op stays counted; the
# size watermark is updated *after* it, and heap-object arguments are
# pushed on the heap's operand stack (`SimHeap.operands`, the caller's
# stack slots) in argument order before the delegated operation and
# popped in its `finally`, so the stack is empty between operations.
# Bulk operations (add_all, put_all, ...) charge through `_record`
# instead -- interleaving immediate `charge` calls with batched `pending`
# adds commutes, so mixing the two lanes is unobservable.  The plain
# per-op chains in repro.verify.oracle are the executable spec these
# methods are differentially tested against.

_DEFAULT_REGISTRY = default_registry()

_OP_SIZE = Op.SIZE.index
_OP_IS_EMPTY = Op.IS_EMPTY.index
_OP_CLEAR = Op.CLEAR.index
_OP_ITERATE = Op.ITERATE.index
_OP_ITER_EMPTY = Op.ITER_EMPTY.index


class ChameleonCollection:
    """Common wrapper machinery for the three ADT kinds."""

    KIND: CollectionKind
    #: ``KIND.value``: the key of the registry's factory tables.
    _KIND_KEY: str
    DEFAULT_SRC_TYPE: str

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
        creation, wrapper heap allocation, profiler registration,
        adoption, copy fill and tracer callback, in that order.

        Context resolution is skipped when nothing captures (no explicit
        key, no sampled profile, no policy), and the policy consultation
        when the VM has no policy.  Object sizes are computed once per
        VM (``vm.object_sizes``).
        """
        # Every instance stores the same attributes in the same order,
        # and none is added after construction: CPython (3.11) then keeps
        # each wrapper's attributes in the class's shared-key layout
        # instead of giving it a dict of its own.
        self.vm = vm
        self.registry = registry = registry or _DEFAULT_REGISTRY
        self.src_type = src_type = src_type or self.DEFAULT_SRC_TYPE
        self.use_shared_empty_iterator = use_shared_empty_iterator

        profiler = vm.profiler
        if vm.profiling_enabled:
            profile = profiler.should_sample(src_type)
            if not profile:
                profiler.on_unsampled_allocation(src_type)
        else:
            profile = False

        policy = vm.policy
        context_id = None
        if context is not None or profile or policy is not None:
            # Not inlined: capture_context charges per *walked* stack
            # frame (internal frames included), so the helper frame is
            # part of the priced semantics -- eliding it would change
            # the tick total.
            context_id = self._resolve_context(context, profile)
        self.context_id = context_id

        impl_name = impl
        capacity = initial_capacity
        merged_kwargs = impl_kwargs
        if policy is not None:
            choice = vm.choose_implementation(src_type, context_id)
            if choice is not None:
                if impl_name is None and choice.impl_name is not None:
                    impl_name = choice.impl_name
                if choice.initial_capacity is not None:
                    capacity = choice.initial_capacity
                if choice.impl_kwargs:
                    merged_kwargs = {**(impl_kwargs or {}),
                                     **choice.impl_kwargs}
        # The default name and the factory straight from the registry's
        # tables (no method hop, keyed by the kind's value, not the
        # enum); a miss falls through to the method, which raises the
        # registry's KeyError.
        if impl_name is None:
            impl_name = (registry._defaults.get(src_type)
                         or registry.default_impl_for(src_type))
        factory = (registry._factories[self._KIND_KEY].get(impl_name)
                   or registry.factory(impl_name, self.KIND))
        # The impl leaves its anchor pinned on the operand stack until
        # `adopt`; if anything before the wrapper's own object exists
        # raises (an OutOfMemoryError), cut the stack back to this depth
        # so no half-built impl stays rooted.
        operands = vm.heap.operands
        depth = len(operands)
        try:
            if merged_kwargs:
                impl = factory(vm, initial_capacity=capacity,
                               context_id=context_id, **merged_kwargs)
            else:
                impl = factory(vm, initial_capacity=capacity,
                               context_id=context_id)
            self.impl: CollectionImpl = impl

            # Per-cycle footprint caches, keyed on the impl's structural
            # token (None = impl opted out of caching).  Invalidated on
            # swap_to, which replaces the impl outright.
            self._fp_token: Optional[int] = None
            self._fp_triple: Optional[FootprintTriple] = None
            self._ids_token: Optional[int] = None
            self._ids_list: List[int] = []

            # Recording state, fixed for the wrapper's lifetime: the
            # clock whose `pending` lane the single-element ops add to,
            # their fused per-op constant (RuntimeEnvironment rejects
            # negative ones), the heap's operand stack, and a sampled
            # instance's profiling record and dense counter array (set
            # below, once the wrapper's object exists).
            self._clock = vm.clock
            self._ticks = vm.costs.wrapper_delegation
            self._operands = operands
            self._oci = self._counts = None

            # The wrapper object: a header and its single impl field.
            heap_obj = self.heap_obj = vm.allocate(
                src_type, vm.object_sizes[1, 0], payload=self,
                context_id=context_id)
        except BaseException:
            del operands[depth:]
            raise
        if profile:
            # Registered only now, so a construction that ran out of
            # memory leaves no record, count or live entry behind.  The
            # death hook folds the record into its context aggregate;
            # registration charges nothing and no cycle can start
            # between the allocation and this binding.
            oci, heap_obj.on_death = profiler.on_profiled_allocation(
                context_id, src_type, impl_name, initial_capacity)
            self._oci = oci
            self._counts = oci.counts
            self._ticks += vm.costs.profile_op
        # A fresh object: its one edge is set directly.
        heap_obj.refs[impl.anchor.obj_id] = 1
        impl.adopt()

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

    def _pin_args(self, values: Iterable[Any]) -> int:
        """Model Java stack slots for heap-object arguments; returns how
        many were pushed, for :meth:`_unpin_args`.

        The caller holds its argument in a local for the duration of the
        call, keeping it reachable even while the ADT allocates (array
        growth, entry objects) *before* linking the element in.  The
        simulated heap cannot see Python locals, so the wrapper pushes
        heap-object arguments on the heap's operand stack
        (``SimHeap.operands``) for the span of the delegated operation.
        The caller pops them with :meth:`_unpin_args` in a ``finally``.
        """
        pinned = [v for v in values if isinstance(v, HeapObject)]
        self.vm.heap.operands.extend(pinned)
        return len(pinned)

    def _unpin_args(self, pinned: int) -> None:
        """Pop the ``pinned`` operands :meth:`_pin_args` pushed."""
        if pinned:
            del self.vm.heap.operands[-pinned:]

    def record_copied(self) -> None:
        """This collection was the source of an addAll/putAll/copy-ctor."""
        if self._oci is not None:
            self._oci.record_copied()

    @property
    def object_info(self):
        """The instance's profiling record, if it was sampled."""
        return self._oci

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
        become garbage.  If the migration raises (say, the new
        implementation cannot hold that many elements), the wrapper keeps
        its old implementation, contents and heap edges, the new one is
        left unreferenced, and the exception propagates.
        """
        capacity = initial_capacity
        if capacity is None:
            capacity = max(self.impl.size, 1)
        old_impl = self.impl
        operands = self.vm.heap.operands
        depth = len(operands)
        try:
            new_impl = self.registry.create(
                self.vm, impl_name, kind=self.KIND,
                initial_capacity=capacity, context_id=self.context_id,
                **(impl_kwargs or {}))
            self.impl = new_impl
            self._fp_token = None
            self._ids_token = None
            self._migrate(old_impl, new_impl)
        except BaseException:
            # The old impl is still linked from the wrapper and intact;
            # a new one loses its construction pin without gaining an
            # owner, so the next cycle frees it.
            self.impl = old_impl
            self._fp_token = None
            self._ids_token = None
            del operands[depth:]
            raise
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
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_OP_SIZE] += 1
        return self.impl.size

    def is_empty(self) -> bool:
        """Recorded ``isEmpty()`` operation."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_OP_IS_EMPTY] += 1
        return self.impl.is_empty

    def clear(self) -> None:
        """Recorded ``clear()`` operation."""
        self._clock.pending += self._ticks
        impl = self.impl
        impl.clear()
        oci = self._oci
        if oci is not None:
            # clear() cannot fail mid-way, so count + size fuse into
            # one post-op call.
            oci.record_op_size(_OP_CLEAR, impl.size)

    def iterate(self) -> CollectionIterator:
        """Recorded iterator creation over the collection's values."""
        impl = self.impl
        empty = impl.is_empty
        self._clock.pending += self._ticks
        counts = self._counts
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
    _KIND_KEY = KIND.value
    DEFAULT_SRC_TYPE = "ArrayList"

    impl: ListImpl

    def add(self, value: Any, _idx: int = Op.ADD.index) -> None:
        """Append ``value`` (``add(Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            operands = self._operands
            operands.append(value)
            try:
                self.impl.add(value)
            finally:
                operands.pop()
        else:
            self.impl.add(value)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size

    def add_at(self, index: int, value: Any,
               _idx: int = Op.ADD_INDEX.index) -> None:
        """Insert at position (``add(int, Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            operands = self._operands
            operands.append(value)
            try:
                self.impl.add_at(index, value)
            finally:
                operands.pop()
        else:
            self.impl.add_at(index, value)
        oci = self._oci
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
        itself; the heap objects of a plain Python iterable are pushed
        on the operand stack (``pinned`` counts them).
        """
        if isinstance(source, ChameleonCollection):
            source.record_copied()
            return source.impl.iter_values(), 0
        values = list(source)
        return values, self._pin_args(values)

    def get(self, index: int, _idx: int = Op.GET_INDEX.index) -> Any:
        """Positional read (``get(int)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.get(index)

    def set_at(self, index: int, value: Any,
               _idx: int = Op.SET_INDEX.index) -> Any:
        """Positional replace (``set(int, Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        old = self.impl.set_at(index, value)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_at(self, index: int,
                  _idx: int = Op.REMOVE_INDEX.index) -> Any:
        """Positional removal (``remove(int)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        old = self.impl.remove_at(index)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_first(self, _idx: int = Op.REMOVE_FIRST.index) -> Any:
        """Head removal (``removeFirst()``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        old = self.impl.remove_first()
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def remove_value(self, value: Any,
                     _idx: int = Op.REMOVE_OBJECT.index) -> bool:
        """First-occurrence removal (``remove(Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        removed = self.impl.remove_value(value)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return removed

    def contains(self, value: Any, _idx: int = Op.CONTAINS.index) -> bool:
        """Membership test (``contains(Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.contains(value)

    def index_of(self, value: Any, _idx: int = Op.INDEX_OF.index) -> int:
        """First-occurrence search (``indexOf(Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.index_of(value)

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
    _KIND_KEY = KIND.value
    DEFAULT_SRC_TYPE = "HashSet"

    impl: SetImpl

    def add(self, value: Any, _idx: int = Op.ADD.index) -> bool:
        """Insert ``value``; False if already present."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        if isinstance(value, HeapObject):
            operands = self._operands
            operands.append(value)
            try:
                added = self.impl.add(value)
            finally:
                operands.pop()
        else:
            added = self.impl.add(value)
        oci = self._oci
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
            values, pinned = source.impl.iter_values(), 0
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
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        removed = self.impl.remove_value(value)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return removed

    def contains(self, value: Any, _idx: int = Op.CONTAINS.index) -> bool:
        """Membership test."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.contains(value)

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
    _KIND_KEY = KIND.value
    DEFAULT_SRC_TYPE = "HashMap"

    impl: MapImpl

    def put(self, key: Any, value: Any, _idx: int = Op.PUT.index) -> Any:
        """Associate ``key`` with ``value``; returns the previous value."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        key_pinned = isinstance(key, HeapObject)
        value_pinned = isinstance(value, HeapObject)
        if key_pinned or value_pinned:
            operands = self._operands
            if key_pinned:
                operands.append(key)
            if value_pinned:
                operands.append(value)
            try:
                old = self.impl.put(key, value)
            finally:
                if key_pinned:
                    operands.pop()
                if value_pinned:
                    operands.pop()
        else:
            old = self.impl.put(key, value)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def get(self, key: Any, _idx: int = Op.GET_OBJECT.index) -> Any:
        """Lookup (``get(Object)``)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.get(key)

    def remove_key(self, key: Any, _idx: int = Op.REMOVE_KEY.index) -> Any:
        """Remove ``key``'s mapping; returns the removed value."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        old = self.impl.remove_key(key)
        oci = self._oci
        if oci is not None:
            size = self.impl.size
            oci.final_size = size
            if size > oci.max_size:
                oci.max_size = size
        return old

    def contains_key(self, key: Any,
                     _idx: int = Op.CONTAINS_KEY.index) -> bool:
        """Key-membership test."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.contains_key(key)

    def contains_value(self, value: Any,
                       _idx: int = Op.CONTAINS_VALUE.index) -> bool:
        """Value-membership test (linear)."""
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_idx] += 1
        return self.impl.contains_value(value)

    def put_all(self, source: Union["ChameleonMap", Dict[Any, Any]]) -> None:
        """Copy every mapping of ``source`` in (``putAll(Map)``)."""
        self._record(Op.PUT_ALL)
        if isinstance(source, ChameleonMap):
            source.record_copied()
            items, pinned = source.impl.iter_items(), 0
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
        impl = self.impl
        empty = impl.is_empty
        self._clock.pending += self._ticks
        counts = self._counts
        if counts is not None:
            counts[_OP_ITERATE] += 1
            if empty:
                counts[_OP_ITER_EMPTY] += 1
        return make_iterator(self.vm, impl.iter_items(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)

    def iterate_keys(self) -> CollectionIterator:
        """Recorded iterator over keys."""
        impl = self.impl
        empty = impl.is_empty
        self._clock.pending += self._ticks
        counts = self._counts
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
