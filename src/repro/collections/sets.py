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
                                      next_power_of_two)
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


class ArraySetImpl(SetImpl):
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

    def _grow_to(self, capacity: int) -> None:
        old = self._array
        new = self.vm.allocate("Object[]",
                               self.vm.model.ref_array_size(capacity),
                               context_id=self.context_id)
        if old is not None:
            for ref_id, count in old.refs.items():
                new.refs[ref_id] = count
            old.clear_refs()
            self.anchor.remove_ref(old.obj_id)
            self.charge(self.vm.costs.copy_per_element * len(self._items))
        self.anchor.add_ref(new.obj_id)
        self._array = new
        self._capacity = capacity

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
            self._grow_to(max((self._capacity * 3) // 2 + 1, needed))
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

    @property
    def capacity(self) -> int:
        """Current backing-array capacity."""
        return self._capacity

    def peek_values(self) -> List[Any]:
        return list(self._items)

    def adt_footprint(self) -> FootprintTriple:
        model = self.vm.model
        n = len(self._items)
        live = self.anchor.size + (self._array.size if self._array else 0)
        used = self.anchor.size + (model.align(model.array_header_bytes
                                               + n * model.pointer_bytes)
                                   if self._array else 0)
        core = model.core_size(n) if n else 0
        return FootprintTriple(live, used, core)

    def adt_internal_ids(self) -> Iterator[int]:
        if self._array is not None:
            yield self._array.obj_id


class SizeAdaptingSetImpl(SetImpl):
    """Hybrid set: array storage until ``conversion_threshold``, then a
    one-way conversion to a hash set (section 2.3's second solution).

    The threshold is the knob the paper found "very tricky": 16 gave TVLA
    a low footprint at an 8% slowdown, 13 gave no footprint win, and
    larger values only degraded time.  The E-Hybrid ablation benchmark
    sweeps it.
    """

    IMPL_NAME = "SizeAdaptingSet"
    DEFAULT_CAPACITY = 4
    DEFAULT_THRESHOLD = 16

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None,
                 conversion_threshold: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self.conversion_threshold = (conversion_threshold
                                     if conversion_threshold is not None
                                     else self.DEFAULT_THRESHOLD)
        if self.conversion_threshold < 1:
            raise ValueError("conversion threshold must be >= 1")
        self._allocate_anchor(ref_fields=1, int_fields=1)
        self._inner: SetImpl = ArraySetImpl(vm, initial_capacity, context_id)
        self.anchor.add_ref(self._inner.anchor_id)
        self._inner.adopt()
        self.conversions = 0

    def _maybe_convert(self) -> None:
        if (isinstance(self._inner, ArraySetImpl)
                and self._inner.size > self.conversion_threshold):
            hashed = HashSetImpl(
                self.vm,
                initial_capacity=next_power_of_two(self._inner.size * 2),
                context_id=self.context_id)
            for value in list(self._inner.iter_values()):
                hashed.add(value)
            self._inner.clear()
            self.anchor.remove_ref(self._inner.anchor_id)
            self.anchor.add_ref(hashed.anchor_id)
            hashed.adopt()
            self._inner = hashed
            self.conversions += 1

    def add(self, value: Any) -> bool:
        added = self._inner.add(value)
        if added:
            self._maybe_convert()
        return added

    def remove_value(self, value: Any) -> bool:
        return self._inner.remove_value(value)

    def contains(self, value: Any) -> bool:
        return self._inner.contains(value)

    def clear(self) -> None:
        self._inner.clear()

    def iter_values(self) -> Iterator[Any]:
        return self._inner.iter_values()

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def is_hashed(self) -> bool:
        """Whether the one-way conversion has happened."""
        return isinstance(self._inner, HashSetImpl)

    def peek_values(self) -> List[Any]:
        return self._inner.peek_values()

    def adt_footprint(self) -> FootprintTriple:
        inner = self._inner.adt_footprint()
        return FootprintTriple(self.anchor.size + inner.live,
                               self.anchor.size + inner.used,
                               inner.core)

    def adt_footprint_token(self) -> Optional[int]:
        # One-way array->hash conversion: no token until hashed, then the
        # engine version (never a stale cross-phase hit).
        return self._inner.adt_footprint_token()

    def adt_internal_ids(self) -> Iterator[int]:
        yield self._inner.anchor_id
        yield from self._inner.adt_internal_ids()
