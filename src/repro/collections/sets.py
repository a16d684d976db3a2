"""Set implementations: HashSet, LinkedHashSet, ArraySet, LazySet and
SizeAdaptingSet.

These mirror section 4.2's alternatives:

* ``HashSet`` (default) -- hash-table backed; pays a 24-byte entry per
  element plus bucket-table slack, fast membership at any size.
* ``LinkedHashSet`` -- hash set with insertion-order iteration (the Table 2
  target for ArrayLists doing heavy ``contains``).
* ``ArraySet`` -- plain array with linear membership; no per-element
  overhead, faster than hashing at small sizes ("constants matter").
* ``LazySet`` -- HashSet whose table is only allocated on first update.
* ``SizeAdaptingSet`` -- starts as an array and converts itself to a hash
  set when it outgrows a threshold (the section 2.3 hybrid, ablated in
  the E-Hybrid benchmark).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.collections.base import SetImpl, values_equal
from repro.collections.hashing import (_MISSING, HashTableEngine,
                                       engine_boxes)
from repro.collections.storage import (ArrayStorage, SizeAdaptingImpl,
                                       grow_capacity)
from repro.memory.heap import HeapObject
from repro.memory.semantic_maps import FootprintTriple

__all__ = [
    "HashSetImpl",
    "LinkedHashSetImpl",
    "LazySetImpl",
    "ArraySetImpl",
    "SizeAdaptingSetImpl",
]


class HashSetImpl(SetImpl):
    """Hash-table backed set (``java.util.HashSet``)."""

    IMPL_NAME = "HashSet"
    DEFAULT_CAPACITY = 16
    LINKED = False
    LAZY = False

    boxes = engine_boxes

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._allocate_anchor(ref_fields=1, int_fields=3)
        self._table = HashTableEngine(
            self, is_map=False, linked=self.LINKED,
            initial_capacity=(initial_capacity if initial_capacity is not None
                              else self.DEFAULT_CAPACITY),
            lazy=self.LAZY)

    def add(self, value: Any) -> bool:
        previous = self._table.put(value, None)
        return previous is _MISSING

    def remove_value(self, value: Any) -> bool:
        return self._table.remove(value) is not _MISSING

    def contains(self, value: Any) -> bool:
        return self._table.get_entry(value) is not None

    def clear(self) -> None:
        self._table.clear()

    def iter_values(self) -> Iterator[Any]:
        for entry in self._table.iter_entries():
            yield entry.key

    @property
    def size(self) -> int:
        return self._table.count

    @property
    def capacity(self) -> int:
        """Current bucket-table capacity."""
        return self._table.capacity

    def peek_values(self) -> List[Any]:
        return self._table.peek_keys()

    def adt_footprint(self) -> FootprintTriple:
        n = self._table.count
        live = self.anchor.size + self._table.live_bytes()
        used = self.anchor.size + self._table.used_bytes()
        core = self.vm.model.core_size(n) if n else 0
        return FootprintTriple(live, used, core)

    def adt_footprint_token(self) -> Optional[int]:
        return self._table.footprint_version

    def adt_internal_ids(self) -> Iterator[int]:
        return self._table.internal_ids()


class LinkedHashSetImpl(HashSetImpl):
    """Hash set with insertion-order iteration (heavier entries)."""

    IMPL_NAME = "LinkedHashSet"
    LINKED = True


class LazySetImpl(HashSetImpl):
    """HashSet whose bucket table appears only on the first update."""

    IMPL_NAME = "LazySet"
    LAZY = True


class ArraySetImpl(ArrayStorage, SetImpl):
    """Array-backed set: linear membership, zero per-element overhead."""

    IMPL_NAME = "ArraySet"
    DEFAULT_CAPACITY = 4

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._items: List[Any] = []
        self._array: Optional[HeapObject] = None
        self._capacity = 0
        self._allocate_anchor(ref_fields=1, int_fields=1)
        self._grow_to(initial_capacity if initial_capacity is not None
                      else self.DEFAULT_CAPACITY)

    def _scan(self, value: Any) -> int:
        scanned = 0
        found = -1
        for i, item in enumerate(self._items):
            scanned += 1
            if values_equal(item, value):
                found = i
                break
        self.charge(self.vm.costs.array_scan_per_element * max(scanned, 1))
        return found

    def add(self, value: Any) -> bool:
        if self._scan(value) >= 0:
            return False
        needed = len(self._items) + 1
        if needed > self._capacity:
            self._grow_to(grow_capacity(self._capacity, needed))
        self._array.add_ref(self.boxes.ref_for(value))
        self._items.append(value)
        self.charge(self.vm.costs.array_access)
        return True

    def remove_value(self, value: Any) -> bool:
        index = self._scan(value)
        if index < 0:
            return False
        old = self._items.pop(index)
        self._array.remove_ref(self.boxes.release(old))
        self.charge(self.vm.costs.copy_per_element
                    * (len(self._items) - index))
        return True

    def contains(self, value: Any) -> bool:
        return self._scan(value) >= 0

    def clear(self) -> None:
        for item in self._items:
            self._array.remove_ref(self.boxes.release(item))
        self.charge(self.vm.costs.array_access * len(self._items))
        self._items.clear()

    def iter_values(self) -> Iterator[Any]:
        # Snapshot at iteration start (uniform across impls).
        for item in list(self._items):
            self.charge(self.vm.costs.array_access)
            yield item

    @property
    def size(self) -> int:
        return len(self._items)

    def peek_values(self) -> List[Any]:
        return list(self._items)


class SizeAdaptingSetImpl(SizeAdaptingImpl, SetImpl):
    """Hybrid set: ArraySet until ``conversion_threshold``, then a
    one-way conversion to HashSet (ablated in the E-Hybrid benchmark)."""

    IMPL_NAME = "SizeAdaptingSet"
    ARRAY_CLASS = ArraySetImpl
    HASH_CLASS = HashSetImpl

    def _refill(self, hashed: SetImpl) -> None:
        for value in list(self._inner.iter_values()):
            hashed.add(value)

    def add(self, value: Any) -> bool:
        added = self._inner.add(value)
        if added:
            self._maybe_convert()
        return added

    def remove_value(self, value: Any) -> bool:
        return self._inner.remove_value(value)

    def contains(self, value: Any) -> bool:
        return self._inner.contains(value)

    def iter_values(self) -> Iterator[Any]:
        return self._inner.iter_values()

    def peek_values(self) -> List[Any]:
        return self._inner.peek_values()
