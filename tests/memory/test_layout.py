"""Memory-layout arithmetic: the byte math every space result rests on."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.layout import MemoryModel, RefArraySizes


class TestAlignment:
    def test_align_rounds_up_to_eight(self, model):
        assert model.align(1) == 8
        assert model.align(8) == 8
        assert model.align(9) == 16

    def test_align_zero(self, model):
        assert model.align(0) == 0

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_align_is_idempotent(self, size):
        model = MemoryModel.for_32bit()
        assert model.align(model.align(size)) == model.align(size)

    @given(st.integers(min_value=0, max_value=1 << 30))
    def test_align_never_shrinks(self, size):
        model = MemoryModel.for_32bit()
        aligned = model.align(size)
        assert aligned >= size
        assert aligned - size < model.alignment

    @given(st.integers(min_value=0, max_value=1 << 20),
           st.integers(min_value=0, max_value=1 << 20))
    def test_align_is_monotonic(self, a, b):
        model = MemoryModel.for_32bit()
        if a <= b:
            assert model.align(a) <= model.align(b)


class TestObjectSizes:
    def test_bare_object_is_one_header(self, model):
        assert model.object_size() == model.align(model.header_bytes)

    def test_object_with_refs(self, model):
        # header 8 + 3 refs * 4 = 20 -> aligned 24
        assert model.object_size(ref_fields=3) == 24

    def test_object_with_mixed_fields(self, model):
        # header 8 + 1 ref + 2 ints = 20 -> 24
        assert model.object_size(ref_fields=1, int_fields=2) == 24

    def test_long_fields_count_eight_bytes(self, model):
        assert model.object_size(long_fields=1) == model.align(
            model.header_bytes + 8)

    def test_hash_entry_is_24_bytes_on_32bit(self, model):
        """Section 2.3: 'The entry object alone on a 32-bit architecture
        consumes 24 bytes (object header and three pointers).'"""
        assert model.hash_entry_size() == 24

    def test_linked_entry_is_24_bytes_on_32bit(self, model):
        assert model.linked_entry_size() == 24

    def test_box_size(self, model):
        assert model.box_size() == model.align(model.header_bytes
                                               + model.int_bytes)


class TestArraySizes:
    def test_empty_ref_array(self, model):
        assert model.ref_array_size(0) == model.align(
            model.array_header_bytes)

    def test_ref_array_scales_by_pointer(self, model):
        base = model.ref_array_size(0)
        assert model.ref_array_size(16) == model.align(
            model.array_header_bytes + 16 * model.pointer_bytes)
        assert model.ref_array_size(16) > base

    def test_int_array_scales_by_int(self, model):
        assert model.int_array_size(10) == model.align(
            model.array_header_bytes + 10 * model.int_bytes)

    def test_negative_length_rejected(self, model):
        with pytest.raises(ValueError):
            model.ref_array_size(-1)
        with pytest.raises(ValueError):
            model.int_array_size(-1)

    def test_core_size_is_bare_pointer_array(self, model):
        assert model.core_size(5) == model.ref_array_size(5)

    def test_ref_array_sizes_table_sizes_by_the_model(self, model):
        table = RefArraySizes(model)
        assert [table[n] for n in (0, 5, 16, 5)] == [
            model.ref_array_size(n) for n in (0, 5, 16, 5)]
        with pytest.raises(ValueError):
            table[-1]
        assert -1 not in table

    @given(st.integers(min_value=0, max_value=100_000))
    def test_ref_array_monotonic_in_length(self, n):
        model = MemoryModel.for_32bit()
        assert model.ref_array_size(n + 1) >= model.ref_array_size(n)


class TestVariants:
    def test_64bit_pointers_are_wider(self):
        m32, m64 = MemoryModel.for_32bit(), MemoryModel.for_64bit()
        assert m64.pointer_bytes == 8
        assert m64.ref_array_size(100) > m32.ref_array_size(100)

    def test_compressed_oops_keep_narrow_refs(self):
        compressed = MemoryModel.for_64bit(compressed_oops=True)
        assert compressed.pointer_bytes == 4
        assert compressed.header_bytes == 12

    def test_invalid_models_rejected(self):
        with pytest.raises(ValueError):
            MemoryModel(pointer_bytes=0)
        with pytest.raises(ValueError):
            MemoryModel(alignment=6)
        with pytest.raises(ValueError):
            MemoryModel(array_header_bytes=4)

    def test_model_is_frozen(self, model):
        with pytest.raises(AttributeError):
            model.pointer_bytes = 8
