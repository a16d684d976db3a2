"""Memory-layout arithmetic for the simulated Java-like heap.

Chameleon's space measurements (collection *live*, *used* and *core* bytes)
are pure layout arithmetic over a Java object model: object headers, array
headers, reference slots and primitive slots, rounded up to the allocation
alignment.  This module captures that arithmetic in a single
:class:`MemoryModel` value object so every other component (the simulated
heap, the collection footprint models, the semantic ADT maps) agrees on the
numbers.

The paper reports its space results for a 32-bit JVM -- e.g. a
``HashMap$Entry`` "consumes 24 bytes (object header and three pointers)"
(section 2.3).  :meth:`MemoryModel.for_32bit` reproduces exactly that
layout; :meth:`MemoryModel.for_64bit` is provided for completeness and for
ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["MemoryModel", "ObjectSizes", "RefArraySizes"]


@dataclass(frozen=True)
class MemoryModel:
    """Byte-level layout parameters of the simulated VM.

    Attributes:
        pointer_bytes: Size of one reference slot.
        header_bytes: Size of a plain object header (mark word + class
            pointer on HotSpot/J9-like VMs).
        array_header_bytes: Size of an array header (object header plus the
            32-bit length field).
        alignment: Allocation granularity; every object size is rounded up
            to a multiple of this.
        int_bytes: Size of a primitive ``int`` slot.
        name: Human-readable tag used in reports.
    """

    pointer_bytes: int = 4
    header_bytes: int = 8
    array_header_bytes: int = 12
    alignment: int = 8
    int_bytes: int = 4
    name: str = "32-bit"

    def __post_init__(self) -> None:
        if self.pointer_bytes <= 0 or self.header_bytes <= 0:
            raise ValueError("pointer and header sizes must be positive")
        if self.alignment <= 0 or (self.alignment & (self.alignment - 1)):
            raise ValueError("alignment must be a positive power of two")
        if self.array_header_bytes < self.header_bytes:
            raise ValueError("array header cannot be smaller than object header")

    @classmethod
    def for_32bit(cls) -> "MemoryModel":
        """The 32-bit layout used throughout the paper's evaluation."""
        return cls()

    @classmethod
    def for_64bit(cls, compressed_oops: bool = False) -> "MemoryModel":
        """A 64-bit layout (optionally with compressed references)."""
        if compressed_oops:
            return cls(
                pointer_bytes=4,
                header_bytes=12,
                array_header_bytes=16,
                alignment=8,
                int_bytes=4,
                name="64-bit/compressed",
            )
        return cls(
            pointer_bytes=8,
            header_bytes=16,
            array_header_bytes=24,
            alignment=8,
            int_bytes=4,
            name="64-bit",
        )

    def align(self, size: int) -> int:
        """Round ``size`` up to the allocation alignment."""
        mask = self.alignment - 1
        return (size + mask) & ~mask

    def object_size(self, ref_fields: int = 0, int_fields: int = 0,
                    long_fields: int = 0) -> int:
        """Aligned size of a plain object with the given field counts."""
        raw = (self.header_bytes
               + ref_fields * self.pointer_bytes
               + int_fields * self.int_bytes
               + long_fields * 8)
        return self.align(raw)

    def ref_array_size(self, length: int) -> int:
        """Aligned size of an ``Object[length]`` array."""
        if length < 0:
            raise ValueError("array length cannot be negative")
        return self.align(self.array_header_bytes + length * self.pointer_bytes)

    def int_array_size(self, length: int) -> int:
        """Aligned size of an ``int[length]`` array."""
        if length < 0:
            raise ValueError("array length cannot be negative")
        return self.align(self.array_header_bytes + length * self.int_bytes)

    def box_size(self) -> int:
        """Aligned size of a boxed primitive (``java.lang.Integer``-like)."""
        return self.object_size(int_fields=1)

    def hash_entry_size(self) -> int:
        """Size of a chained hash-table entry: header + key/value/next refs
        plus a cached 32-bit hash.

        On the 32-bit model this is 24 bytes, matching the figure quoted in
        section 2.3 of the paper.
        """
        return self.object_size(ref_fields=3, int_fields=1)

    def linked_entry_size(self) -> int:
        """Size of a doubly-linked list entry: header + element/next/prev.

        24 bytes on the 32-bit model -- the ``LinkedList$Entry`` weight the
        paper blames for bloat's empty-list spike.
        """
        return self.object_size(ref_fields=3)

    def core_size(self, element_count: int) -> int:
        """The paper's *core* metric: the ideal space needed to store
        ``element_count`` elements in a bare pointer array."""
        return self.ref_array_size(element_count)


class ObjectSizes(dict):
    """``{(ref_fields, int_fields): aligned size}`` of plain objects
    under one :class:`MemoryModel`, each shape sized by
    :meth:`MemoryModel.object_size` on its first lookup.

    A repeat lookup is a plain dict subscript with no Python call, so
    the runtime keeps one table per VM for the shapes every collection
    construction allocates (wrapper, implementation anchor, box).
    """

    def __init__(self, model: MemoryModel) -> None:
        super().__init__()
        self.model = model

    def __missing__(self, shape: Tuple[int, int]) -> int:
        ref_fields, int_fields = shape
        size = self[shape] = self.model.object_size(ref_fields=ref_fields,
                                                    int_fields=int_fields)
        return size


class RefArraySizes(dict):
    """``{length: aligned size}`` of ``Object[length]`` arrays under one
    :class:`MemoryModel`, each length sized by
    :meth:`MemoryModel.ref_array_size` on its first lookup.

    The runtime keeps one table per VM, beside its :class:`ObjectSizes`,
    for the reference arrays collections allocate: an ArrayList's or
    ArraySet's backing array and a hash table's bucket array.
    """

    def __init__(self, model: MemoryModel) -> None:
        super().__init__()
        self.model = model

    def __missing__(self, length: int) -> int:
        size = self[length] = self.model.ref_array_size(length)
        return size
