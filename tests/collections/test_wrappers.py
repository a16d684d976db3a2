"""The Chameleon wrappers: delegation, profiling, swapping, copies."""

import pytest

from repro.collections.wrappers import ChameleonList, ChameleonMap, ChameleonSet
from repro.collections.base import UnsupportedOperation
from repro.profiler.counters import Op
from repro.runtime.context import ContextKey
from repro.runtime.vm import ImplementationChoice


class TestConstruction:
    def test_default_backing_implementations(self, vm):
        assert ChameleonList(vm).impl.IMPL_NAME == "ArrayList"
        assert ChameleonSet(vm).impl.IMPL_NAME == "HashSet"
        assert ChameleonMap(vm).impl.IMPL_NAME == "HashMap"

    def test_src_type_selects_default(self, vm):
        lst = ChameleonList(vm, src_type="LinkedList")
        assert lst.impl.IMPL_NAME == "LinkedList"

    def test_explicit_impl_overrides_default(self, vm):
        mapping = ChameleonMap(vm, src_type="HashMap", impl="ArrayMap")
        assert mapping.impl.IMPL_NAME == "ArrayMap"

    def test_wrapper_heap_object_is_one_ref(self, vm):
        lst = ChameleonList(vm)
        assert lst.heap_obj.size == vm.model.object_size(ref_fields=1)
        assert lst.heap_obj.type_name == "ArrayList"
        assert lst.impl.anchor_id in lst.heap_obj.refs

    def test_wrapper_footprint_adds_wrapper_bytes(self, vm):
        lst = ChameleonList(vm)
        inner = lst.impl.adt_footprint()
        outer = lst.adt_footprint()
        assert outer.live == inner.live + lst.heap_obj.size
        assert outer.core == inner.core

    def test_unknown_src_type_rejected(self, vm):
        with pytest.raises(KeyError):
            ChameleonList(vm, src_type="Nonsense")

    def test_no_context_captured_without_instrumentation(self, vm):
        lst = ChameleonList(vm)
        assert lst.context_id is None

    def test_explicit_context(self, vm):
        key = ContextKey.synthetic("factory", "caller")
        lst = ChameleonList(vm, context=key)
        assert vm.contexts.describe(lst.context_id) == key


class TestDelegation:
    def test_list_operations(self, vm):
        lst = ChameleonList(vm)
        lst.add("a")
        lst.add_at(1, "b")
        lst.add_all(["c", "d"])
        assert lst.size() == 4
        assert lst.get(2) == "c"
        assert lst.contains("d")
        assert lst.index_of("b") == 1
        assert lst.set_at(0, "z") == "a"
        assert lst.remove_at(0) == "z"
        assert lst.remove_first() == "b"
        assert lst.remove_value("d") is True
        assert not lst.is_empty()
        lst.clear()
        assert lst.is_empty()

    def test_to_list_and_snapshot(self, vm):
        lst = ChameleonList(vm)
        lst.add_all([1, 2, 3])
        assert lst.to_list() == [1, 2, 3]
        assert lst.snapshot() == [1, 2, 3]
        assert len(lst) == 3

    def test_set_operations(self, vm):
        s = ChameleonSet(vm)
        assert s.add("a")
        assert not s.add("a")
        s.add_all(["b", "c"])
        assert s.contains("b")
        assert s.remove_value("c")
        assert s.size() == 2

    def test_map_operations(self, vm):
        m = ChameleonMap(vm)
        m.put("k", 1)
        m.put_all({"a": 2, "b": 3})
        assert m.get("a") == 2
        assert m.contains_key("b")
        assert m.contains_value(1)
        assert m.remove_key("k") == 1
        assert m.size() == 2
        assert dict(m.snapshot_items()) == {"a": 2, "b": 3}

    def test_delegation_charges_wrapper_tick(self, vm):
        lst = ChameleonList(vm)
        before = vm.now
        lst.size()
        assert vm.now - before >= vm.costs.wrapper_delegation


class TestProfiling:
    def test_operations_recorded(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        lst.add("a")
        lst.contains("a")
        lst.get(0)
        info = lst.object_info
        assert info.count(Op.ADD) == 1
        assert info.count(Op.CONTAINS) == 1
        assert info.count(Op.GET_INDEX) == 1
        assert info.max_size == 1

    def test_max_size_tracks_high_water_mark(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        for i in range(5):
            lst.add(i)
        lst.remove_at(0)
        lst.remove_at(0)
        info = lst.object_info
        assert info.max_size == 5
        assert info.final_size == 3

    def test_add_all_records_copied_on_source(self, profiled_vm):
        """Section 3.2.2: both sides of addAll are counted."""
        src = ChameleonList(profiled_vm)
        src.add("x")
        dst = ChameleonList(profiled_vm)
        dst.add_all(src)
        assert dst.object_info.count(Op.ADD_ALL) == 1
        assert src.object_info.count(Op.COPIED) == 1
        # The bulk adds do not count as individual #add on dst.
        assert dst.object_info.count(Op.ADD) == 0

    def test_copy_constructor_records_only_copied(self, profiled_vm):
        src = ChameleonList(profiled_vm)
        src.add("x")
        src_ops_before = src.object_info.total_ops
        dup = ChameleonList(profiled_vm, copy_from=src)
        assert dup.snapshot() == ["x"]
        assert src.object_info.count(Op.COPIED) == 1
        # Constructor fill is not an operation on the new collection.
        assert dup.object_info.total_ops == 0
        assert dup.object_info.max_size == 1
        assert src.object_info.total_ops == src_ops_before + 1

    def test_iterate_records_empty_iterations(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        list(lst.iterate())
        lst.add(1)
        list(lst.iterate())
        info = lst.object_info
        assert info.count(Op.ITERATE) == 2
        assert info.count(Op.ITER_EMPTY) == 1

    def test_context_captured_when_profiling(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        assert lst.context_id is not None
        key = profiled_vm.contexts.describe(lst.context_id)
        assert "test_context_captured_when_profiling" in key.render()

    def test_capture_cost_charged_when_profiling(self, profiled_vm):
        before = profiled_vm.now
        ChameleonList(profiled_vm)
        assert (profiled_vm.now - before
                >= profiled_vm.costs.stack_walk_base)

    def test_death_folds_into_context(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        lst.add(1)
        context_id = lst.context_id
        del lst
        profiled_vm.collect()
        info = profiled_vm.profiler.context_info(context_id)
        assert info.instances_dead == 1
        assert info.avg_max_size == 1.0


class TestIterators:
    def test_iterator_allocates_heap_object(self, vm):
        lst = ChameleonList(vm)
        lst.add(1)
        before = vm.heap.total_allocated_objects
        iterator = lst.iterate()
        assert vm.heap.total_allocated_objects == before + 1
        assert list(iterator) == [1]
        assert not iterator.is_shared_empty

    def test_shared_empty_iterator_skips_allocation(self, vm):
        lst = ChameleonList(vm, use_shared_empty_iterator=True)
        before = vm.heap.total_allocated_objects
        iterator = lst.iterate()
        assert vm.heap.total_allocated_objects == before
        assert iterator.is_shared_empty
        assert list(iterator) == []

    def test_map_iterators(self, vm):
        m = ChameleonMap(vm)
        m.put("k", 1)
        assert list(m.iterate_items()) == [("k", 1)]
        assert list(m.iterate_keys()) == ["k"]


class TestSwapping:
    def test_swap_preserves_list_contents(self, vm):
        lst = ChameleonList(vm)
        lst.add_all([1, 2, 3])
        lst.swap_to("LinkedList")
        assert lst.impl.IMPL_NAME == "LinkedList"
        assert lst.snapshot() == [1, 2, 3]

    def test_swap_preserves_map_contents(self, vm):
        m = ChameleonMap(vm)
        m.put_all({"a": 1, "b": 2})
        m.swap_to("ArrayMap")
        assert m.impl.IMPL_NAME == "ArrayMap"
        assert dict(m.snapshot_items()) == {"a": 1, "b": 2}

    def test_swap_updates_heap_graph(self, vm):
        lst = ChameleonList(vm)
        old_anchor = lst.impl.anchor_id
        lst.swap_to("LinkedList")
        assert old_anchor not in lst.heap_obj.refs
        assert lst.impl.anchor_id in lst.heap_obj.refs

    def test_swap_recorded_in_profile(self, profiled_vm):
        lst = ChameleonList(profiled_vm)
        lst.add(1)
        lst.swap_to("LinkedList")
        assert lst.object_info.swap_count == 1
        assert lst.object_info.impl_name == "LinkedList"

    def test_swap_to_singleton_rejects_oversized(self, vm):
        lst = ChameleonList(vm)
        lst.pin()
        lst.add_all([1, 2])
        old_impl = lst.impl
        edges = dict(lst.heap_obj.refs)
        roots = set(vm.heap.root_ids())
        with pytest.raises(UnsupportedOperation):
            lst.swap_to("SingletonList")
        # The failed swap leaves the wrapper as it was ...
        assert lst.impl is old_impl
        assert lst.impl.IMPL_NAME == "ArrayList"
        assert lst.snapshot() == [1, 2]
        assert lst.heap_obj.refs == edges
        # ... and the half-filled new impl unrooted, so it dies.
        assert set(vm.heap.root_ids()) == roots
        new_anchors = [obj.obj_id for obj in vm.heap.objects()
                       if getattr(obj.payload, "IMPL_NAME", None)
                       == "SingletonList"]
        assert len(new_anchors) == 1
        vm.collect()
        assert new_anchors[0] not in vm.heap.ids()
        lst.add(3)
        assert lst.snapshot() == [1, 2, 3]


class _FixedPolicy:
    requires_runtime_capture = False

    def __init__(self, choice):
        self._choice = choice

    def choose(self, src_type, context_id):
        return self._choice


class TestPolicyIntegration:
    def test_policy_replaces_implementation(self, vm):
        vm.policy = _FixedPolicy(ImplementationChoice("ArrayMap"))
        mapping = ChameleonMap(vm, src_type="HashMap")
        assert mapping.impl.IMPL_NAME == "ArrayMap"

    def test_policy_capacity_overrides_program(self, vm):
        vm.policy = _FixedPolicy(ImplementationChoice(None,
                                                      initial_capacity=3))
        lst = ChameleonList(vm, initial_capacity=100)
        assert lst.impl.capacity == 3

    def test_policy_impl_kwargs_forwarded(self, vm):
        vm.policy = _FixedPolicy(ImplementationChoice(
            "SizeAdaptingMap", impl_kwargs={"conversion_threshold": 5}))
        mapping = ChameleonMap(vm, src_type="HashMap")
        assert mapping.impl.conversion_threshold == 5

    def test_explicit_impl_wins_over_policy(self, vm):
        vm.policy = _FixedPolicy(ImplementationChoice("ArrayMap"))
        mapping = ChameleonMap(vm, src_type="HashMap", impl="LinkedHashMap")
        assert mapping.impl.IMPL_NAME == "LinkedHashMap"


class TestFootprintCaching:
    """Wrapper-level footprint/internal-id caching, keyed on the impl's
    ``adt_footprint_token``: exact through mutations, invalidated by
    swaps, bypassed (token ``None``) for impls without a version."""

    def _fresh_triple(self, wrapper):
        inner = wrapper.impl.adt_footprint()
        return (inner.live + wrapper.heap_obj.size,
                inner.used + wrapper.heap_obj.size,
                inner.core)

    def _fresh_ids(self, wrapper):
        return [wrapper.impl.anchor_id] + list(wrapper.impl.adt_internal_ids())

    def _assert_exact(self, wrapper):
        triple = wrapper.adt_footprint()
        assert (triple.live, triple.used, triple.core) \
            == self._fresh_triple(wrapper)
        assert list(wrapper.adt_internal_ids()) == self._fresh_ids(wrapper)

    def test_hash_map_cache_exact_across_mutations(self, vm):
        mapping = ChameleonMap(vm)
        for i in range(30):
            mapping.put(f"k{i}", i)
            self._assert_exact(mapping)
        mapping.put("k3", "overwritten")      # non-structural
        self._assert_exact(mapping)
        mapping.remove_key("k0")
        self._assert_exact(mapping)
        mapping.clear()
        self._assert_exact(mapping)

    def test_cache_hit_returns_same_objects(self, vm):
        mapping = ChameleonMap(vm)
        mapping.put("a", 1)
        first = mapping.adt_footprint()
        ids = mapping.adt_internal_ids()
        assert mapping.adt_footprint() is first
        assert mapping.adt_internal_ids() is ids
        mapping.put("b", 2)
        assert mapping.adt_footprint() is not first

    def test_swap_invalidates_the_cache(self, vm):
        mapping = ChameleonMap(vm)
        for i in range(4):
            mapping.put(i, i)
        self._assert_exact(mapping)
        mapping.swap_to("ArrayMap")
        assert mapping.impl.adt_footprint_token() is None
        self._assert_exact(mapping)
        mapping.swap_to("HashMap")
        self._assert_exact(mapping)

    def test_tokenless_impl_recomputes_every_time(self, vm):
        lst = ChameleonList(vm)  # ArrayList: no version token
        assert lst.impl.adt_footprint_token() is None
        lst.add_all([1, 2, 3])
        before = lst.adt_footprint()
        assert lst.adt_footprint() is not before  # no caching
        self._assert_exact(lst)

    def test_size_adapting_token_delegates_to_inner(self, vm):
        mapping = ChameleonMap(vm, impl="SizeAdaptingMap")
        assert mapping.impl.adt_footprint_token() is None  # array inner
        for i in range(40):  # force conversion to the hash inner
            mapping.put(i, i)
        assert mapping.impl.adt_footprint_token() is not None
        self._assert_exact(mapping)
