"""The shared chained hash-table engine."""

import pytest

from repro.collections.hashing import HashTableEngine, next_power_of_two
from repro.collections.maps import (HashMapImpl, LazyMapImpl,
                                    LinkedHashMapImpl)
from repro.collections.sets import HashSetImpl, LinkedHashSetImpl
from repro.collections.wrappers import ChameleonMap
from repro.memory.heap import OutOfMemoryError
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.sanitizer import HeapSanitizer


class TestNextPowerOfTwo:
    @pytest.mark.parametrize("value,expected", [
        (0, 1), (1, 1), (2, 2), (3, 4), (16, 16), (17, 32), (1000, 1024)])
    def test_values(self, value, expected):
        assert next_power_of_two(value) == expected


class TestEngineViaMap:
    def test_capacity_rounds_to_power_of_two(self, vm):
        assert HashMapImpl(vm, initial_capacity=20).capacity == 32
        assert HashMapImpl(vm, initial_capacity=16).capacity == 16

    def test_load_factor_resize_boundary(self, vm):
        mapping = HashMapImpl(vm, initial_capacity=8)
        for i in range(6):  # 6 == 8 * 0.75: at the threshold, no resize
            mapping.put(i, i)
        assert mapping.capacity == 8
        mapping.put(6, 6)
        assert mapping.capacity == 16

    def test_entries_survive_resize(self, vm):
        mapping = HashMapImpl(vm, initial_capacity=4)
        expected = {i: i * 3 for i in range(40)}
        for key, value in expected.items():
            mapping.put(key, value)
        assert dict(mapping.iter_items()) == expected

    def test_chain_probing_costs_scale_with_collisions(self, vm):
        """Many keys in one bucket make probes proportionally pricier --
        the clustering the paper's open-addressing caveat is about."""
        from repro.collections.base import element_hash

        mapping = HashMapImpl(vm, initial_capacity=1024)
        # Gather keys that genuinely land in one bucket of the 1024-slot
        # table under mask indexing.
        target = element_hash(0) & 1023
        colliding, candidate = [], 0
        while len(colliding) < 24:
            if element_hash(candidate) & 1023 == target:
                colliding.append(candidate)
            candidate += 1
        for key in colliding:
            mapping.put(key, key)
        start = vm.now
        mapping.get(colliding[-1])
        long_chain = vm.now - start
        start = vm.now
        mapping.get(colliding[0])
        short_chain = vm.now - start
        assert long_chain > short_chain

    def test_clear_retains_table(self, vm):
        mapping = HashMapImpl(vm, initial_capacity=32)
        for i in range(10):
            mapping.put(i, i)
        mapping.clear()
        assert mapping.capacity == 32
        assert mapping.size == 0

    def test_invalid_load_factor(self, vm):
        with pytest.raises(ValueError):
            HashTableEngine(HashSetImpl(vm), is_map=False, load_factor=0)


class TestFootprintPieces:
    def test_used_counts_occupied_slots_only(self, vm):
        sparse = HashSetImpl(vm, initial_capacity=64)
        sparse.add("one")
        triple = sparse.adt_footprint()
        # Slack is the 63 unoccupied slots.
        expected_slack = (vm.model.ref_array_size(64)
                          - vm.model.align(vm.model.array_header_bytes
                                           + 1 * vm.model.pointer_bytes))
        assert triple.slack == expected_slack

    def test_linked_entries_are_heavier(self, vm):
        plain = HashSetImpl(vm)
        linked_engine = HashTableEngine(HashSetImpl(vm), is_map=False,
                                        linked=True)
        assert linked_engine.entry_size > plain._table.entry_size
        assert linked_engine.entry_type_name == "LinkedHashMap$Entry"

    def test_internal_ids_count(self, vm):
        mapping = HashMapImpl(vm)
        for i in range(5):
            mapping.put(i, i)
        internals = list(mapping.adt_internal_ids())
        assert len(internals) == 6  # table + 5 entries


class TestIncrementalBookkeeping:
    """The O(1) ``used_bytes`` occupancy counter and the version-token
    caches must stay exact against brute-force recomputation through
    every structural mutation (insert, overwrite, remove, resize,
    clear)."""

    def _occupied_recount(self, table):
        return sum(1 for bucket in table._buckets if bucket)

    def _exercise(self, table, mutate_steps):
        version = table.footprint_version
        for step, bumps in mutate_steps:
            step()
            assert table._occupied == self._occupied_recount(table), \
                "occupancy counter drifted"
            if bumps:
                assert table.footprint_version != version, \
                    "structural mutation did not bump the version token"
            else:
                assert table.footprint_version == version, \
                    "non-structural mutation bumped the version token"
            version = table.footprint_version

    def test_occupied_and_version_track_every_mutation(self, vm):
        mapping = HashMapImpl(vm, initial_capacity=4)
        table = mapping._table
        steps = [(lambda i=i: mapping.put(i, i), True)
                 for i in range(20)]                    # inserts + resizes
        steps.append((lambda: mapping.put(3, 99), False))  # value overwrite
        steps += [(lambda i=i: mapping.remove_key(i), True)
                  for i in range(0, 20, 3)]
        steps.append((lambda: mapping.clear(), True))
        self._exercise(table, steps)

    def test_internal_ids_cache_is_exact(self, vm):
        mapping = HashMapImpl(vm, initial_capacity=4)
        table = mapping._table

        def fresh_ids():
            return [table._table_obj.obj_id] \
                + [entry.heap_obj.obj_id for entry in table._order]

        for i in range(25):
            mapping.put(i, i)
            assert table.internal_ids() == fresh_ids()
        cached = table.internal_ids()
        assert table.internal_ids() is cached  # stable until mutation
        mapping.remove_key(7)
        assert table.internal_ids() == fresh_ids()
        mapping.clear()
        assert table.internal_ids() == fresh_ids()


class _RecordingStack(list):
    """An operand stack that logs every push in ``pushed``."""

    def __init__(self):
        super().__init__()
        self.pushed = []

    def append(self, value):
        self.pushed.append(value)
        super().append(value)


def _record_pushes(collection):
    """Give ``collection``'s heap and hash engine one recording operand
    stack; returns it."""
    operands = collection.vm.heap.operands = _RecordingStack()
    collection._table._operands = operands
    return operands


class TestConstructionPin:
    """A new entry is unreachable until linked into the table.  It is
    held on the heap's operand stack across that window only when
    storing an element can allocate a box (and hence collect): never for
    a record key (plus, in a map, a record value)."""

    @pytest.mark.parametrize("impl", [HashMapImpl, HashSetImpl])
    def test_record_put_allocates_one_object_and_no_root(self, vm, impl):
        collection = impl(vm)
        key, value = vm.allocate_data("Rec"), vm.allocate_data("Rec")
        heap = vm.heap
        roots = dict(heap._roots)
        allocated = heap.total_allocated_objects
        operands = _record_pushes(collection)
        if impl is HashMapImpl:
            collection.put(key, value)
        else:
            collection.add(key)
        assert heap.total_allocated_objects == allocated + 1
        assert operands.pushed == [] and operands == []
        assert heap._roots == roots

    @pytest.mark.parametrize("impl", [HashMapImpl, HashSetImpl])
    def test_boxing_put_holds_the_entry_as_an_operand(self, vm, impl):
        collection = impl(vm)
        heap = vm.heap
        roots = dict(heap._roots)
        operands = _record_pushes(collection)
        if impl is HashMapImpl:
            collection.put(1, 2)
        else:
            collection.add(1)
        (entry,) = collection._table._order
        assert operands.pushed == [entry.heap_obj]
        assert operands == []
        assert heap._roots == roots

    @pytest.mark.parametrize("impl", [HashMapImpl, LinkedHashMapImpl,
                                      LazyMapImpl, HashSetImpl,
                                      LinkedHashSetImpl])
    def test_boxing_puts_survive_a_gc_at_every_allocation(self, impl):
        vm = RuntimeEnvironment(gc_threshold_bytes=1)
        sanitizer = HeapSanitizer().attach(vm)
        collection = impl(vm)
        record = vm.allocate_data("Rec")
        vm.add_root(record)
        # The record key's value is a not-yet-boxed primitive, so that
        # put must still pin its entry.
        pairs = [(key, None) for key in list(range(24)) + ["Aa", "BB"]]
        pairs.append((record, 10_000))
        is_map = isinstance(collection, HashMapImpl)
        for key, value in pairs:
            if is_map:
                collection.put(key, value)
            else:
                collection.add(key)
        vm.collect()
        assert vm.timeline.cycle_count > len(pairs)
        expected = pairs if is_map else [key for key, _ in pairs]
        assert (collection.peek_items() if is_map
                else collection.peek_values()) == expected
        for entry in collection._table._order:
            assert vm.heap.contains(entry.heap_obj.obj_id)
            for ref_id in entry.heap_obj.refs:
                assert vm.heap.contains(ref_id)
        assert sanitizer.ok, sanitizer.report()


class TestPutOutOfMemory:
    """An ``OutOfMemoryError`` raised while ``put`` boxes an element
    leaves the map as it was: its mappings, its box pool and its heap
    edges.  Ticks move only on the raising path."""

    def _map(self, **kwargs):
        vm = RuntimeEnvironment(gc_threshold_bytes=None, **kwargs)
        sanitizer = HeapSanitizer().attach(vm)
        return vm, sanitizer, ChameleonMap(vm).pin()

    def _assert_consistent(self, vm, sanitizer, mapping):
        """Every mapping removes cleanly, and the emptied map's pool
        holds no box, with no dangling edge at any cycle."""
        vm.collect()
        for key, value in mapping.snapshot_items():
            assert mapping.remove_key(key) == value
        assert mapping.impl.boxes.box_count == 0
        vm.collect()
        assert sanitizer.ok, sanitizer.report()

    def test_insert_returns_the_key_box_when_boxing_the_value_raises(self):
        vm, sanitizer, mapping = self._map(heap_limit=168)
        record = vm.allocate_data("Rec")
        vm.add_root(record)
        with pytest.raises(OutOfMemoryError):
            mapping.put(0, -1000)
        assert mapping.snapshot_items() == []
        assert mapping.impl.boxes.box_count == 0
        vm.collect()
        # The key's box was swept with the unlinked entry; a later put
        # of the same primitive boxes it afresh (and, with a record
        # value, just fits).
        mapping.put(0, record)
        assert mapping.get(0) is record
        self._assert_consistent(vm, sanitizer, mapping)

    def test_update_keeps_the_old_value_box_when_boxing_the_new_raises(self):
        vm, sanitizer, mapping = self._map(heap_limit=200)
        mapping.put(0, 1)
        mapping.put(1, 1)
        edges = {entry.heap_obj.obj_id: dict(entry.heap_obj.refs)
                 for entry in mapping.impl._table._order}
        with pytest.raises(OutOfMemoryError):
            mapping.put(0, -1000)
        assert mapping.snapshot_items() == [(0, 1), (1, 1)]
        assert {entry.heap_obj.obj_id: dict(entry.heap_obj.refs)
                for entry in mapping.impl._table._order} == edges
        assert mapping.remove_key(0) == 1
        self._assert_consistent(vm, sanitizer, mapping)

    def test_update_reboxes_an_old_value_whose_box_was_swept(self):
        """The old value's box had no other count, so the collection
        before the OOM (here a GC-overhead one) swept it; the entry gets
        a fresh box for the value it keeps."""
        vm, sanitizer, mapping = self._map(
            heap_limit=200, gc_overhead_fraction=1.0, gc_overhead_limit=1)
        mapping.put(0, 5)
        while vm.heap.occupied_bytes + 16 <= 200:
            vm.add_root(vm.allocate_data("Filler", int_fields=1))
        (entry,) = mapping.impl._table._order
        old_box = next(ref for ref in entry.heap_obj.refs
                       if vm.heap.get(ref).type_name == "Box"
                       and ref != mapping.impl.boxes.peek(0))
        with pytest.raises(OutOfMemoryError):
            mapping.put(0, 6)
        assert not vm.heap.contains(old_box)
        assert mapping.get(0) == 5
        new_box = mapping.impl.boxes.peek(5)
        assert new_box != old_box and vm.heap.contains(new_box)
        assert new_box in entry.heap_obj.refs
        self._assert_consistent(vm, sanitizer, mapping)

    def test_puts_that_do_not_raise_are_unchanged(self):
        """The update path's order is release-then-box, as before: a
        re-put of a value whose box held the last count boxes it anew,
        and a cycle inside that allocation sweeps the old box."""
        vm = RuntimeEnvironment(gc_threshold_bytes=1)
        mapping = ChameleonMap(vm).pin()
        mapping.put(0, 5)
        box = mapping.impl.boxes.peek(5)
        mapping.put(0, 5)
        assert mapping.impl.boxes.peek(5) != box
        assert not vm.heap.contains(box)
