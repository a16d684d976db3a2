"""The primitive-array family ("Similar for other primitives")."""

import pytest
from hypothesis import given, settings, strategies as st

import repro.collections
from repro.collections.base import CollectionKind
from repro.collections.lists import ArrayListImpl
from repro.collections.primitive_arrays import (BoolArrayImpl,
                                                DoubleArrayImpl,
                                                IntArrayImpl, LongArrayImpl,
                                                make_primitive_array_impl)
from repro.collections.registry import default_registry
from repro.runtime.vm import RuntimeEnvironment

#: Every built-in member: (class, slot bytes, three distinct values).
FAMILY = {
    "IntArray": (IntArrayImpl, 4, (5, -7, 9)),
    "LongArray": (LongArrayImpl, 8, (5, 1 << 40, -9)),
    "DoubleArray": (DoubleArrayImpl, 8, (0.5, -7.0, 9.25)),
    "BoolArray": (BoolArrayImpl, 1, (True, False, True)),
}

#: The members that store ints.
INTEGRAL = (IntArrayImpl, LongArrayImpl)


class TestFamilyMembers:
    def test_int_array_stores_ints(self, vm):
        arr = IntArrayImpl(vm)
        arr.add(-(1 << 20))
        assert arr.get(0) == -(1 << 20)
        assert arr.ARRAY_TYPE_NAME == "int[]"
        with pytest.raises(TypeError, match="expected an int, not float"):
            arr.add(1.5)
        with pytest.raises(TypeError):
            arr.add(True)

    def test_long_array_stores_ints(self, vm):
        arr = LongArrayImpl(vm)
        arr.add(1 << 40)
        assert arr.get(0) == 1 << 40
        with pytest.raises(TypeError):
            arr.add(1.5)
        with pytest.raises(TypeError):
            arr.add(True)

    def test_double_array_stores_reals(self, vm):
        arr = DoubleArrayImpl(vm)
        arr.add(2.5)
        arr.add(3)        # Integral is Real: stored as float
        assert arr.peek_values() == [2.5, 3.0]
        with pytest.raises(TypeError):
            arr.add("text")

    def test_bool_array(self, vm):
        arr = BoolArrayImpl(vm)
        arr.add(True)
        arr.add(False)
        assert arr.peek_values() == [True, False]
        with pytest.raises(TypeError):
            arr.add(1)

    def test_slot_widths_drive_footprint(self, vm):
        model = vm.model
        for impl_class, slot_bytes, values in FAMILY.values():
            arr = impl_class(vm, initial_capacity=16)
            for value in values:
                arr.add(value)
            array = model.align(model.array_header_bytes + 16 * slot_bytes)
            used = model.align(model.array_header_bytes + 3 * slot_bytes)
            assert arr.adt_footprint().live - arr.anchor.size == array
            assert arr.adt_footprint().used - arr.anchor.size == used
            assert arr.adt_footprint().core == used

    def test_no_boxing(self, vm):
        for impl_class, _, values in FAMILY.values():
            arr = impl_class(vm)
            for _ in range(4):
                for value in values:
                    arr.add(value)
            assert arr.boxes.box_count == 0

    def test_unboxed_beats_boxed_list(self, vm):
        boxed = ArrayListImpl(vm, initial_capacity=16)
        for i in range(16):
            boxed.add(i)
        boxed_total = (boxed.adt_footprint().live
                       + boxed.boxes.box_count * vm.model.box_size())
        for impl_class in INTEGRAL:
            unboxed = impl_class(vm, initial_capacity=16)
            for i in range(16):
                unboxed.add(i)
            assert unboxed.adt_footprint().live < boxed_total


class TestListSemantics:
    @settings(max_examples=40, deadline=None)
    @given(ops=st.lists(st.tuples(
        st.sampled_from(["add", "remove", "set", "insert"]),
        st.integers(-5, 5)), max_size=30))
    def test_long_array_matches_python_list(self, ops):
        for impl_class in INTEGRAL:
            self._check_against_python_list(impl_class, ops)

    @staticmethod
    def _check_against_python_list(impl_class, ops):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        arr = impl_class(vm)
        reference = []
        for name, value in ops:
            if name == "add":
                arr.add(value)
                reference.append(value)
            elif name == "remove" and reference:
                index = abs(value) % len(reference)
                assert arr.remove_at(index) == reference.pop(index)
            elif name == "set" and reference:
                index = abs(value) % len(reference)
                assert arr.set_at(index, value) == reference[index]
                reference[index] = value
            elif name == "insert":
                index = abs(value) % (len(reference) + 1)
                arr.add_at(index, value)
                reference.insert(index, value)
            triple = arr.adt_footprint()
            assert triple.live >= triple.used >= triple.core >= 0
        assert arr.peek_values() == reference

    def test_index_of_and_clear(self, vm):
        for impl_class, _, values in FAMILY.values():
            arr = impl_class(vm)
            for value in values:
                arr.add(value)
            assert arr.index_of(values[1]) == 1
            assert arr.index_of("absent") == -1
            arr.clear()
            assert arr.size == 0


class TestFactory:
    def test_custom_member(self, vm):
        ShortArray = make_primitive_array_impl(
            "ShortArray", 2,
            lambda v: int(v) if -32768 <= int(v) < 32768 else
            (_ for _ in ()).throw(TypeError("out of short range")))
        arr = ShortArray(vm)
        arr.add(100)
        assert arr.get(0) == 100
        assert arr.ARRAY_TYPE_NAME == "short[]"

    def test_invalid_slot_width(self):
        with pytest.raises(ValueError):
            make_primitive_array_impl("X", 0, int)

    def test_registered_in_default_registry(self, vm):
        registry = default_registry()
        for name, (impl_class, _, _) in FAMILY.items():
            assert registry.factory(name, CollectionKind.LIST) is impl_class
            impl = registry.create(vm, name, CollectionKind.LIST)
            assert type(impl) is impl_class
            assert impl.IMPL_NAME == name
        # One IntArray: the package export is the class the registry
        # builds.
        assert (registry.factory("IntArray", CollectionKind.LIST)
                is repro.collections.IntArrayImpl)
