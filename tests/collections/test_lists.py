"""List implementations: semantics, growth, footprint accounting."""

import pytest

from repro.collections.lists import (ArrayListImpl, EmptyListImpl,
                                     LazyArrayListImpl, LinkedListImpl,
                                     SingletonListImpl)
from repro.collections.base import UnsupportedOperation
from repro.collections.primitive_arrays import IntArrayImpl
from repro.collections.storage import grow_capacity


class TestGrowthFormula:
    def test_paper_formula(self):
        """newCapacity = (oldCapacity * 3) / 2 + 1 (section 2.2)."""
        assert grow_capacity(100, 101) == 151
        assert grow_capacity(10, 11) == 16
        assert grow_capacity(0, 1) == 1

    def test_clamps_to_needed(self):
        assert grow_capacity(4, 100) == 100


class TestArrayList:
    def test_append_get(self, vm):
        lst = ArrayListImpl(vm)
        for i in range(5):
            lst.add(i * 10)
        assert lst.size == 5
        assert [lst.get(i) for i in range(5)] == [0, 10, 20, 30, 40]

    def test_default_capacity(self, vm):
        assert ArrayListImpl(vm).capacity == 10

    def test_explicit_capacity(self, vm):
        assert ArrayListImpl(vm, initial_capacity=3).capacity == 3

    def test_growth_on_overflow(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=2)
        for i in range(3):
            lst.add(i)
        assert lst.capacity == 4  # (2*3)//2+1

    def test_paper_growth_example(self, vm):
        """Section 2.2: capacity 100 holding 100; one more add -> 151."""
        lst = ArrayListImpl(vm, initial_capacity=100)
        for i in range(100):
            lst.add(i)
        assert lst.capacity == 100
        lst.add(100)
        assert lst.capacity == 151

    def test_insert_shifts(self, vm):
        lst = ArrayListImpl(vm)
        lst.add("a")
        lst.add("c")
        lst.add_at(1, "b")
        assert lst.peek_values() == ["a", "b", "c"]

    def test_insert_bounds(self, vm):
        lst = ArrayListImpl(vm)
        with pytest.raises(IndexError):
            lst.add_at(1, "x")
        lst.add_at(0, "x")  # == size is allowed

    def test_set_at_returns_old(self, vm):
        lst = ArrayListImpl(vm)
        lst.add("a")
        assert lst.set_at(0, "b") == "a"
        assert lst.get(0) == "b"

    def test_remove_at(self, vm):
        lst = ArrayListImpl(vm)
        for value in "abc":
            lst.add(value)
        assert lst.remove_at(1) == "b"
        assert lst.peek_values() == ["a", "c"]

    def test_remove_value_first_occurrence(self, vm):
        lst = ArrayListImpl(vm)
        for value in ("x", "y", "x"):
            lst.add(value)
        assert lst.remove_value("x")
        assert lst.peek_values() == ["y", "x"]
        assert not lst.remove_value("z")

    def test_index_of_and_contains(self, vm):
        lst = ArrayListImpl(vm)
        for value in "abc":
            lst.add(value)
        assert lst.index_of("b") == 1
        assert lst.index_of("z") == -1
        assert lst.contains("c")
        assert not lst.contains("q")

    def test_remove_first(self, vm):
        lst = ArrayListImpl(vm)
        lst.add(1)
        lst.add(2)
        assert lst.remove_first() == 1
        assert lst.peek_values() == [2]

    def test_remove_first_empty_raises(self, vm):
        with pytest.raises(IndexError):
            ArrayListImpl(vm).remove_first()

    def test_clear_keeps_capacity(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=8)
        for i in range(8):
            lst.add(i)
        lst.clear()
        assert lst.size == 0
        assert lst.capacity == 8

    def test_iter_values(self, vm):
        lst = ArrayListImpl(vm)
        for i in range(4):
            lst.add(i)
        assert list(lst.iter_values()) == [0, 1, 2, 3]

    def test_get_bounds(self, vm):
        lst = ArrayListImpl(vm)
        lst.add(1)
        with pytest.raises(IndexError):
            lst.get(1)
        with pytest.raises(IndexError):
            lst.get(-1)

    def test_duplicate_elements_supported(self, vm):
        lst = ArrayListImpl(vm)
        lst.add("dup")
        lst.add("dup")
        lst.remove_value("dup")
        assert lst.peek_values() == ["dup"]

    def test_operations_charge_clock(self, vm):
        lst = ArrayListImpl(vm)
        before = vm.now
        lst.add(1)
        assert vm.now > before


class TestArrayListFootprint:
    def test_empty_footprint(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=10)
        triple = lst.adt_footprint()
        expected_live = (vm.model.object_size(ref_fields=1, int_fields=2)
                         + vm.model.ref_array_size(10))
        assert triple.live == expected_live
        assert triple.core == 0

    def test_slack_is_unused_capacity(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=10)
        for i in range(4):
            lst.add(i)
        triple = lst.adt_footprint()
        slack = (vm.model.ref_array_size(10)
                 - vm.model.align(vm.model.array_header_bytes
                                  + 4 * vm.model.pointer_bytes))
        assert triple.slack == slack

    def test_full_list_has_minimal_slack(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=4)
        for i in range(4):
            lst.add(i)
        assert lst.adt_footprint().slack == 0

    def test_internal_ids_cover_backing_array(self, vm):
        lst = ArrayListImpl(vm)
        internals = list(lst.adt_internal_ids())
        assert len(internals) == 1
        assert vm.heap.get(internals[0]).type_name == "Object[]"

    def test_resize_replaces_backing_array(self, vm):
        lst = ArrayListImpl(vm, initial_capacity=1)
        old_ids = list(lst.adt_internal_ids())
        lst.add(1)
        lst.add(2)  # forces growth
        new_ids = list(lst.adt_internal_ids())
        assert old_ids != new_ids


class TestLazyArrayList:
    def test_no_array_until_update(self, vm):
        lst = LazyArrayListImpl(vm)
        assert lst.capacity == 0
        assert list(lst.adt_internal_ids()) == []
        anchor_only = vm.model.object_size(ref_fields=1, int_fields=2)
        assert lst.adt_footprint().live == anchor_only

    def test_first_update_allocates(self, vm):
        lst = LazyArrayListImpl(vm)
        lst.add(1)
        assert lst.capacity == 10
        assert lst.get(0) == 1

    def test_reads_on_empty_lazy_list(self, vm):
        lst = LazyArrayListImpl(vm)
        assert lst.size == 0
        assert not lst.contains(1)
        assert list(lst.iter_values()) == []

    def test_lazy_beats_eager_when_empty(self, vm):
        eager = ArrayListImpl(vm)
        lazy = LazyArrayListImpl(vm)
        assert lazy.adt_footprint().live < eager.adt_footprint().live


class TestLinkedList:
    def test_sentinel_entry_exists_when_empty(self, vm):
        """The bloat finding: an empty LinkedList still owns a 24-byte
        header entry (section 5.3)."""
        lst = LinkedListImpl(vm)
        triple = lst.adt_footprint()
        assert triple.slack == vm.model.linked_entry_size()
        internals = list(lst.adt_internal_ids())
        assert len(internals) == 1
        assert vm.heap.get(internals[0]).type_name == "LinkedList$Entry"

    def test_entry_per_element(self, vm):
        lst = LinkedListImpl(vm)
        for i in range(3):
            lst.add(i)
        assert len(list(lst.adt_internal_ids())) == 4  # sentinel + 3
        entry = vm.model.linked_entry_size()
        anchor = vm.model.object_size(ref_fields=1, int_fields=2)
        assert lst.adt_footprint().live == anchor + 4 * entry

    def test_list_semantics(self, vm):
        lst = LinkedListImpl(vm)
        for value in "abc":
            lst.add(value)
        lst.add_at(1, "x")
        assert lst.peek_values() == ["a", "x", "b", "c"]
        assert lst.remove_at(2) == "b"
        assert lst.remove_first() == "a"
        assert lst.index_of("c") == 1
        assert lst.set_at(0, "y") == "x"
        assert lst.peek_values() == ["y", "c"]

    def test_random_access_costs_more_in_the_middle(self, vm):
        lst = LinkedListImpl(vm)
        for i in range(100):
            lst.add(i)
        start = vm.now
        lst.get(0)
        head_cost = vm.now - start
        start = vm.now
        lst.get(50)
        middle_cost = vm.now - start
        assert middle_cost > head_cost

    def test_clear_keeps_sentinel(self, vm):
        lst = LinkedListImpl(vm)
        lst.add(1)
        lst.clear()
        assert lst.size == 0
        assert len(list(lst.adt_internal_ids())) == 1

    def test_removed_entries_become_unreferenced(self, vm):
        lst = LinkedListImpl(vm)
        lst.add("a")
        entry_id = list(lst.adt_internal_ids())[1]
        lst.remove_at(0)
        assert entry_id not in lst.anchor.refs


class TestSingletonList:
    def test_single_fill(self, vm):
        lst = SingletonListImpl(vm)
        lst.add("only")
        assert lst.size == 1
        assert lst.get(0) == "only"
        assert lst.contains("only")
        assert lst.index_of("only") == 0

    def test_second_add_rejected(self, vm):
        lst = SingletonListImpl(vm)
        lst.add("only")
        with pytest.raises(UnsupportedOperation):
            lst.add("more")

    def test_mutations_rejected(self, vm):
        lst = SingletonListImpl(vm)
        lst.add("only")
        with pytest.raises(UnsupportedOperation):
            lst.remove_at(0)
        with pytest.raises(UnsupportedOperation):
            lst.set_at(0, "x")
        with pytest.raises(UnsupportedOperation):
            lst.clear()
        with pytest.raises(UnsupportedOperation):
            lst.remove_value("only")

    def test_footprint_is_just_the_anchor(self, vm):
        lst = SingletonListImpl(vm)
        lst.add("only")
        triple = lst.adt_footprint()
        assert triple.live == vm.model.object_size(ref_fields=1)
        assert triple.slack == 0

    def test_smaller_than_array_list_for_one_element(self, vm):
        array_list = ArrayListImpl(vm)
        array_list.add("x")
        singleton = SingletonListImpl(vm)
        singleton.add("x")
        assert (singleton.adt_footprint().live
                < array_list.adt_footprint().live)

    def test_iteration(self, vm):
        lst = SingletonListImpl(vm)
        assert list(lst.iter_values()) == []
        lst.add(5)
        assert list(lst.iter_values()) == [5]


class TestEmptyList:
    def test_all_mutations_rejected(self, vm):
        lst = EmptyListImpl(vm)
        with pytest.raises(UnsupportedOperation):
            lst.add(1)
        with pytest.raises(UnsupportedOperation):
            lst.remove_at(0)
        with pytest.raises(UnsupportedOperation):
            lst.remove_value(1)

    def test_reads(self, vm):
        lst = EmptyListImpl(vm)
        assert lst.size == 0
        assert lst.index_of(1) == -1
        assert list(lst.iter_values()) == []
        with pytest.raises(IndexError):
            lst.get(0)

    def test_minimal_footprint(self, vm):
        triple = EmptyListImpl(vm).adt_footprint()
        assert triple.live == vm.model.object_size()
        assert triple.core == 0


class TestIntArray:
    def test_stores_ints_unboxed(self, vm):
        arr = IntArrayImpl(vm)
        arr.add(42)
        assert arr.get(0) == 42
        # No Box objects were allocated.
        assert arr.boxes.box_count == 0

    def test_rejects_non_ints(self, vm):
        arr = IntArrayImpl(vm)
        with pytest.raises(TypeError):
            arr.add("text")
        with pytest.raises(TypeError):
            arr.add(True)  # bool is not an int element

    def test_int_array_beats_boxed_list(self, vm):
        """The point of IntArray: 4 bytes/slot and no boxes."""
        boxed = ArrayListImpl(vm, initial_capacity=10)
        unboxed = IntArrayImpl(vm, initial_capacity=10)
        for i in range(10):
            boxed.add(i)
            unboxed.add(i)
        boxed_total = (boxed.adt_footprint().live
                       + boxed.boxes.box_count * vm.model.box_size())
        assert unboxed.adt_footprint().live < boxed_total

    def test_list_semantics(self, vm):
        arr = IntArrayImpl(vm)
        for i in (5, 7, 9):
            arr.add(i)
        arr.add_at(1, 6)
        assert arr.peek_values() == [5, 6, 7, 9]
        assert arr.remove_at(3) == 9
        assert arr.index_of(7) == 2
        assert arr.set_at(0, 4) == 5
        arr.clear()
        assert arr.size == 0

    def test_growth(self, vm):
        arr = IntArrayImpl(vm, initial_capacity=2)
        for i in range(5):
            arr.add(i)
        assert arr.capacity >= 5
        assert arr.peek_values() == [0, 1, 2, 3, 4]

    def test_footprint_uses_int_slots(self, vm):
        arr = IntArrayImpl(vm, initial_capacity=8)
        for i in range(4):
            arr.add(i)
        triple = arr.adt_footprint()
        anchor = vm.model.object_size(ref_fields=1, int_fields=2)
        assert triple.live == anchor + vm.model.int_array_size(8)
        assert triple.used == anchor + vm.model.align(
            vm.model.array_header_bytes + 4 * vm.model.int_bytes)
