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

from repro.collections.base import SetImpl
from repro.collections.hashing import _MISSING
from repro.collections.storage import (HashKeyStorage, ItemArrayStorage,
                                       SizeAdaptingImpl, grow_capacity)
from repro.memory.heap import HeapObject

__all__ = [
    "HashSetImpl",
    "LinkedHashSetImpl",
    "LazySetImpl",
    "ArraySetImpl",
    "SizeAdaptingSetImpl",
]


class HashSetImpl(HashKeyStorage, SetImpl):
    """Hash-table backed set (``java.util.HashSet``)."""

    IMPL_NAME = "HashSet"

    def add(self, value: Any) -> bool:
        previous = self._table.put(value, None)
        return previous is _MISSING


class LinkedHashSetImpl(HashSetImpl):
    """Hash set with insertion-order iteration (heavier entries)."""

    IMPL_NAME = "LinkedHashSet"
    LINKED = True


class LazySetImpl(HashSetImpl):
    """HashSet whose bucket table appears only on the first update."""

    IMPL_NAME = "LazySet"
    LAZY = True


class ArraySetImpl(ItemArrayStorage, SetImpl):
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

    def add(self, value: Any) -> bool:
        if self.index_of(value) >= 0:
            return False
        needed = len(self._items) + 1
        if needed > self._capacity:
            self._grow_to(grow_capacity(self._capacity, needed))
        self._array.add_ref(self.boxes.ref_for(value))
        self._items.append(value)
        self.charge(self.vm.costs.array_access)
        return True

    def remove_value(self, value: Any) -> bool:
        index = self.index_of(value)
        if index < 0:
            return False
        old = self._items.pop(index)
        self._array.remove_ref(self.boxes.release(old))
        self.charge(self.vm.costs.copy_per_element
                    * (len(self._items) - index))
        return True

    def contains(self, value: Any) -> bool:
        return self.index_of(value) >= 0

    def clear(self) -> None:
        for item in self._items:
            self._array.remove_ref(self.boxes.release(item))
        self.charge(self.vm.costs.array_access * len(self._items))
        self._items.clear()


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
