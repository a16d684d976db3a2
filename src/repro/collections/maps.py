"""Map implementations: HashMap, LinkedHashMap, ArrayMap, LazyMap and
SizeAdaptingMap.

* ``HashMap`` (default) -- chained hash table; every mapping costs a
  24-byte entry object plus bucket-table slack.  Section 2.3 shows why
  this dominates TVLA's footprint even at tiny initial capacities.
* ``LinkedHashMap`` -- insertion-order variant with heavier entries.
* ``ArrayMap`` -- a single interleaved ``Object[2*capacity]`` of key/value
  slots with linear lookup; the replacement that cut TVLA's minimal heap
  by 53.95%.
* ``LazyMap`` -- HashMap whose table is allocated on first ``put`` (the
  FindBugs fix for contexts where most maps stay empty).
* ``SizeAdaptingMap`` -- ArrayMap until a size threshold, then a one-way
  conversion to HashMap (the section 2.3 hybrid; threshold ablated in
  E-Hybrid).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.collections.base import MapImpl, values_equal
from repro.collections.hashing import _MISSING
from repro.collections.storage import (ArrayStorage, HashStorage,
                                       SizeAdaptingImpl, grow_capacity)
from repro.memory.heap import HeapObject

__all__ = [
    "HashMapImpl",
    "LinkedHashMapImpl",
    "LazyMapImpl",
    "ArrayMapImpl",
    "SizeAdaptingMapImpl",
]


class HashMapImpl(HashStorage, MapImpl):
    """Chained hash map (``java.util.HashMap``)."""

    IMPL_NAME = "HashMap"
    IS_MAP = True

    def put(self, key: Any, value: Any) -> Any:
        previous = self._table.put(key, value)
        return None if previous is _MISSING else previous

    def get(self, key: Any) -> Any:
        entry = self._table.get_entry(key)
        return entry.value if entry is not None else None

    def remove_key(self, key: Any) -> Any:
        removed = self._table.remove(key)
        return None if removed is _MISSING else removed

    def contains_key(self, key: Any) -> bool:
        return self._table.get_entry(key) is not None

    def iter_items(self) -> Iterator[Tuple[Any, Any]]:
        for entry in self._table.iter_entries():
            yield entry.key, entry.value

    def peek_items(self) -> List[Tuple[Any, Any]]:
        return self._table.peek_pairs()


class LinkedHashMapImpl(HashMapImpl):
    """Hash map with insertion-order iteration (heavier entries)."""

    IMPL_NAME = "LinkedHashMap"
    LINKED = True


class LazyMapImpl(HashMapImpl):
    """HashMap whose bucket table appears only on the first ``put``."""

    IMPL_NAME = "LazyMap"
    LAZY = True


class ArrayMapImpl(ArrayStorage, MapImpl):
    """Interleaved key/value array map with linear lookup.

    Stores pairs in one ``Object[2*capacity]``; lookup scans keys at even
    slots.  No entry objects, no table slack beyond unused pair slots --
    which is the entire space win over HashMap for small maps.
    """

    IMPL_NAME = "ArrayMap"
    DEFAULT_CAPACITY = 4
    SLOTS_PER_ELEMENT = 2

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._keys: List[Any] = []
        self._values: List[Any] = []
        self._array: Optional[HeapObject] = None
        self._capacity = 0  # capacity in *pairs*
        self._allocate_anchor(ref_fields=1, int_fields=1)
        self._grow_to(initial_capacity if initial_capacity is not None
                      else self.DEFAULT_CAPACITY)

    def _scan(self, key: Any) -> int:
        found = -1
        if type(key) is HeapObject:
            # Records compare by identity: the same slots values_equal
            # would examine.
            for i, stored in enumerate(self._keys):
                if stored is key:
                    found = i
                    break
        else:
            for i, stored in enumerate(self._keys):
                if values_equal(stored, key):
                    found = i
                    break
        scanned = found + 1 if found >= 0 else len(self._keys)
        self.charge(self.vm.costs.array_scan_per_element * max(scanned, 1))
        return found

    def put(self, key: Any, value: Any) -> Any:
        index = self._scan(key)
        if index >= 0:
            old = self._values[index]
            self._array.remove_ref(self.boxes.release(old))
            self._array.add_ref(self.boxes.ref_for(value))
            self._values[index] = value
            self.charge(self.vm.costs.array_access)
            return old
        needed = len(self._keys) + 1
        if needed > self._capacity:
            self._grow_to(grow_capacity(self._capacity, needed))
        self._array.add_ref(self.boxes.ref_for(key))
        self._array.add_ref(self.boxes.ref_for(value))
        self._keys.append(key)
        self._values.append(value)
        self.charge(self.vm.costs.array_access * 2)
        return None

    def get(self, key: Any) -> Any:
        index = self._scan(key)
        if index < 0:
            return None
        self.charge(self.vm.costs.array_access)
        return self._values[index]

    def remove_key(self, key: Any) -> Any:
        index = self._scan(key)
        if index < 0:
            return None
        old_key = self._keys.pop(index)
        old_value = self._values.pop(index)
        self._array.remove_ref(self.boxes.release(old_key))
        self._array.remove_ref(self.boxes.release(old_value))
        self.charge(self.vm.costs.copy_per_element
                    * 2 * (len(self._keys) - index))
        return old_value

    def contains_key(self, key: Any) -> bool:
        return self._scan(key) >= 0

    def clear(self) -> None:
        for key, value in zip(self._keys, self._values):
            self._array.remove_ref(self.boxes.release(key))
            self._array.remove_ref(self.boxes.release(value))
        self.charge(self.vm.costs.array_access * 2 * len(self._keys))
        self._keys.clear()
        self._values.clear()

    def iter_items(self) -> Iterator[Tuple[Any, Any]]:
        for key, value in zip(list(self._keys), list(self._values)):
            self.charge(self.vm.costs.array_access * 2)
            yield key, value

    @property
    def size(self) -> int:
        return len(self._keys)

    def peek_items(self) -> List[Tuple[Any, Any]]:
        return list(zip(self._keys, self._values))


class SizeAdaptingMapImpl(SizeAdaptingImpl, MapImpl):
    """Hybrid map: ArrayMap until ``conversion_threshold``, then a
    one-way conversion to HashMap (ablated in the E-Hybrid benchmark)."""

    IMPL_NAME = "SizeAdaptingMap"
    ARRAY_CLASS = ArrayMapImpl
    HASH_CLASS = HashMapImpl

    def _refill(self, hashed: MapImpl) -> None:
        for key, value in list(self._inner.iter_items()):
            hashed.put(key, value)

    def put(self, key: Any, value: Any) -> Any:
        old = self._inner.put(key, value)
        self._maybe_convert()
        return old

    def get(self, key: Any) -> Any:
        return self._inner.get(key)

    def remove_key(self, key: Any) -> Any:
        return self._inner.remove_key(key)

    def contains_key(self, key: Any) -> bool:
        return self._inner.contains_key(key)

    def iter_items(self) -> Iterator[Tuple[Any, Any]]:
        return self._inner.iter_items()

    def peek_items(self) -> List[Tuple[Any, Any]]:
        return self._inner.peek_items()
