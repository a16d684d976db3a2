"""List implementations: ArrayList, LazyArrayList, LinkedList,
SingletonList and EmptyList.

These mirror the alternative implementations listed in section 4.2 of the
paper.  Each models the memory layout and operation costs of its Java
counterpart on the simulated heap:

* ``ArrayList`` -- resizable ``Object[]``; grows by the paper's formula
  ``newCapacity = (oldCapacity * 3) / 2 + 1``.
* ``LazyArrayList`` -- identical, but the backing array is only allocated
  on the first update (the Table 2 fix for redundant allocations).
* ``LinkedList`` -- doubly-linked list whose per-element ``Entry`` objects
  weigh ``linked_entry_size()`` bytes each, *plus a sentinel entry that
  exists even when the list is empty* -- the overhead behind the bloat
  benchmark's 25%-of-heap spike (section 5.3).
* ``SingletonList`` -- immutable one-element list (the SOOT fix).
* ``EmptyList`` -- immutable empty list (PMD's ``EMPTY_LIST`` idiom).

``IntArray`` and the other unboxed arrays are the primitive-array family
(:mod:`repro.collections.primitive_arrays`).
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.collections.base import (ListImpl, UnsupportedOperation,
                                    values_equal)
from repro.collections.storage import ItemArrayStorage, grow_capacity
from repro.memory.heap import HeapObject
from repro.memory.semantic_maps import FootprintTriple

__all__ = [
    "ArrayListImpl",
    "LazyArrayListImpl",
    "LinkedListImpl",
    "SingletonListImpl",
    "EmptyListImpl",
]


class ArrayListImpl(ItemArrayStorage, ListImpl):
    """Resizable-array list (``java.util.ArrayList``)."""

    IMPL_NAME = "ArrayList"
    DEFAULT_CAPACITY = 10
    LAZY = False

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._items: List[Any] = []
        # Anchor, construction pin and (unless lazy) the first backing
        # array, inline, each fresh object's edge set directly: nearly
        # every collection a program builds is an ArrayList, so its
        # construction skips _allocate_anchor and _grow_to.
        anchor = self.anchor = vm.allocate(
            self.IMPL_NAME, vm.object_sizes[1, 2], payload=self,
            context_id=context_id)
        vm.heap.operands.append(anchor)
        self._construction_rooted = True
        if self.LAZY:
            self._array: Optional[HeapObject] = None
            self._capacity = 0
        else:
            capacity = (self.DEFAULT_CAPACITY if initial_capacity is None
                        else initial_capacity)
            array = self._array = vm.allocate(
                self.ARRAY_TYPE_NAME, vm.ref_array_sizes[capacity],
                context_id=context_id)
            anchor.refs[array.obj_id] = 1
            self._capacity = capacity

    def _requested_capacity(self) -> int:
        if self.initial_capacity is not None:
            return self.initial_capacity
        return self.DEFAULT_CAPACITY

    def _ensure_capacity(self, needed: int) -> None:
        if self._array is None:
            # Lazy first update: honour the requested capacity if it is
            # large enough, otherwise allocate exactly what is needed.
            self._grow_to(max(self._requested_capacity(), needed))
        elif needed > self._capacity:
            self._grow_to(grow_capacity(self._capacity, needed))

    # ------------------------------------------------------------------
    # List operations
    # ------------------------------------------------------------------
    def add(self, value: Any) -> None:
        self._ensure_capacity(len(self._items) + 1)
        self._array.add_ref(self.boxes.ref_for(value))
        self._items.append(value)
        self.charge(self.vm.costs.array_access)

    def add_at(self, index: int, value: Any) -> None:
        size = len(self._items)
        if not 0 <= index <= size:
            raise IndexError(f"index {index} out of range [0, {size}]")
        self._ensure_capacity(size + 1)
        self._array.add_ref(self.boxes.ref_for(value))
        self._items.insert(index, value)
        self.charge(self.vm.costs.array_access
                    + self.vm.costs.copy_per_element * (size - index))

    def set_at(self, index: int, value: Any) -> Any:
        self._check_index(index, len(self._items))
        old = self._items[index]
        self._array.remove_ref(self.boxes.release(old))
        self._array.add_ref(self.boxes.ref_for(value))
        self._items[index] = value
        self.charge(self.vm.costs.array_access)
        return old

    def remove_at(self, index: int) -> Any:
        self._check_index(index, len(self._items))
        old = self._items.pop(index)
        self._array.remove_ref(self.boxes.release(old))
        self.charge(self.vm.costs.array_access
                    + self.vm.costs.copy_per_element
                    * (len(self._items) - index))
        return old

    def clear(self) -> None:
        for item in self._items:
            self._array.remove_ref(self.boxes.release(item))
        self.charge(self.vm.costs.array_access * len(self._items))
        self._items.clear()


class LazyArrayListImpl(ArrayListImpl):
    """ArrayList whose backing array appears only on the first update."""

    IMPL_NAME = "LazyArrayList"
    LAZY = True


class LinkedListImpl(ListImpl):
    """Doubly-linked list (``java.util.LinkedList``) with a sentinel entry.

    The sentinel models Java 6's header ``Entry``: it is allocated at
    construction and never stores an element, so every empty LinkedList
    still carries ``linked_entry_size()`` bytes of pure overhead.
    """

    IMPL_NAME = "LinkedList"
    DEFAULT_CAPACITY = 0

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._items: List[Any] = []
        self._entries: List[HeapObject] = []
        self._allocate_anchor(ref_fields=1, int_fields=2)
        self._sentinel = self._new_entry()

    def _new_entry(self) -> HeapObject:
        entry = self.vm.allocate("LinkedList$Entry",
                                 self.vm.model.linked_entry_size(),
                                 context_id=self.context_id)
        self.anchor.add_ref(entry.obj_id)
        return entry

    def _traverse_cost(self, index: int) -> int:
        """Ticks to reach ``index`` from the nearer end."""
        size = len(self._items)
        steps = min(index, size - index) + 1 if size else 1
        return self.vm.costs.link_traverse_per_node * steps

    # ------------------------------------------------------------------
    # List operations
    # ------------------------------------------------------------------
    def add(self, value: Any) -> None:
        entry = self._new_entry()
        entry.add_ref(self.boxes.ref_for(value))
        self._items.append(value)
        self._entries.append(entry)
        self.charge(self.vm.costs.entry_link)

    def add_at(self, index: int, value: Any) -> None:
        size = len(self._items)
        if not 0 <= index <= size:
            raise IndexError(f"index {index} out of range [0, {size}]")
        self.charge(self._traverse_cost(min(index, size - 1) if size else 0))
        entry = self._new_entry()
        entry.add_ref(self.boxes.ref_for(value))
        self._items.insert(index, value)
        self._entries.insert(index, entry)
        self.charge(self.vm.costs.entry_link)

    def get(self, index: int) -> Any:
        self._check_index(index, len(self._items))
        self.charge(self._traverse_cost(index))
        return self._items[index]

    def set_at(self, index: int, value: Any) -> Any:
        self._check_index(index, len(self._items))
        self.charge(self._traverse_cost(index))
        old = self._items[index]
        entry = self._entries[index]
        entry.remove_ref(self.boxes.release(old))
        entry.add_ref(self.boxes.ref_for(value))
        self._items[index] = value
        return old

    def remove_at(self, index: int) -> Any:
        self._check_index(index, len(self._items))
        self.charge(self._traverse_cost(index) + self.vm.costs.entry_link)
        old = self._items.pop(index)
        entry = self._entries.pop(index)
        entry.remove_ref(self.boxes.release(old))
        self.anchor.remove_ref(entry.obj_id)
        return old

    def remove_first(self) -> Any:
        if self.is_empty:
            raise IndexError("remove_first on empty list")
        return self.remove_at(0)

    def index_of(self, value: Any) -> int:
        scanned = 0
        found = -1
        for i, item in enumerate(self._items):
            scanned += 1
            if values_equal(item, value):
                found = i
                break
        self.charge(self.vm.costs.link_traverse_per_node * max(scanned, 1))
        return found

    def clear(self) -> None:
        for item, entry in zip(self._items, self._entries):
            entry.remove_ref(self.boxes.release(item))
            self.anchor.remove_ref(entry.obj_id)
        self.charge(self.vm.costs.entry_link * len(self._items))
        self._items.clear()
        self._entries.clear()

    def iter_values(self) -> Iterator[Any]:
        # Snapshot at iteration start (uniform mutation-during-iteration
        # semantics across impls).
        for item in list(self._items):
            self.charge(self.vm.costs.link_traverse_per_node)
            yield item

    @property
    def size(self) -> int:
        return len(self._items)

    def peek_values(self) -> List[Any]:
        return list(self._items)

    # ------------------------------------------------------------------
    # Footprint
    # ------------------------------------------------------------------
    def adt_footprint(self) -> FootprintTriple:
        model = self.vm.model
        n = len(self._items)
        entry = model.linked_entry_size()
        live = self.anchor.size + entry * (n + 1)
        used = self.anchor.size + entry * n
        core = model.core_size(n) if n else 0
        return FootprintTriple(live, used, core)

    def adt_internal_ids(self) -> Iterator[int]:
        yield self._sentinel.obj_id
        for entry in self._entries:
            yield entry.obj_id


class SingletonListImpl(ListImpl):
    """Immutable one-element list (the SOOT ``SingletonList`` fix).

    The single element may be supplied once via :meth:`add` (modelling
    construction); every later mutation raises
    :class:`UnsupportedOperation`.
    """

    IMPL_NAME = "SingletonList"
    DEFAULT_CAPACITY = 1

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._value: Any = None
        self._filled = False
        self._allocate_anchor(ref_fields=1, int_fields=0)

    def add(self, value: Any) -> None:
        if self._filled:
            raise UnsupportedOperation("SingletonList already holds its element")
        self.anchor.add_ref(self.boxes.ref_for(value))
        self._value = value
        self._filled = True
        self.charge(self.vm.costs.array_access)

    def add_at(self, index: int, value: Any) -> None:
        # Fullness wins over the index check: a filled singleton refuses
        # *any* insertion (UnsupportedOperation), while an empty one only
        # accepts index 0 -- the same IndexError an empty ArrayList gives
        # for any other index.
        if self._filled:
            raise UnsupportedOperation(
                "SingletonList already holds its element")
        if index != 0:
            raise IndexError(f"index {index} out of range for singleton")
        self.add(value)

    def get(self, index: int) -> Any:
        self._check_index(index, self.size)
        self.charge(self.vm.costs.array_access)
        return self._value

    def set_at(self, index: int, value: Any) -> Any:
        raise UnsupportedOperation("SingletonList is immutable")

    def remove_at(self, index: int) -> Any:
        raise UnsupportedOperation("SingletonList is immutable")

    def remove_value(self, value: Any) -> bool:
        raise UnsupportedOperation("SingletonList is immutable")

    def index_of(self, value: Any) -> int:
        self.charge(self.vm.costs.compare)
        if self._filled and values_equal(self._value, value):
            return 0
        return -1

    def clear(self) -> None:
        raise UnsupportedOperation("SingletonList is immutable")

    def iter_values(self) -> Iterator[Any]:
        if self._filled:
            self.charge(self.vm.costs.array_access)
            yield self._value

    @property
    def size(self) -> int:
        return 1 if self._filled else 0

    def peek_values(self) -> List[Any]:
        return [self._value] if self._filled else []

    def adt_footprint(self) -> FootprintTriple:
        live = used = self.anchor.size
        core = self.vm.model.core_size(1) if self._filled else 0
        core = min(core, used)
        return FootprintTriple(live, used, core)

    def adt_internal_ids(self) -> Iterator[int]:
        return iter(())


class EmptyListImpl(ListImpl):
    """Immutable empty list (``Collections.EMPTY_LIST``)."""

    IMPL_NAME = "EmptyList"
    DEFAULT_CAPACITY = 0

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._allocate_anchor(ref_fields=0, int_fields=0)

    def add(self, value: Any) -> None:
        raise UnsupportedOperation("EmptyList is immutable")

    add_at = set_at = lambda self, *a: (_ for _ in ()).throw(
        UnsupportedOperation("EmptyList is immutable"))

    def get(self, index: int) -> Any:
        raise IndexError("EmptyList has no elements")

    def remove_at(self, index: int) -> Any:
        raise UnsupportedOperation("EmptyList is immutable")

    def remove_value(self, value: Any) -> bool:
        raise UnsupportedOperation("EmptyList is immutable")

    def index_of(self, value: Any) -> int:
        self.charge(self.vm.costs.compare)
        return -1

    def clear(self) -> None:
        self.charge(self.vm.costs.compare)

    def iter_values(self) -> Iterator[Any]:
        return iter(())

    @property
    def size(self) -> int:
        return 0

    def peek_values(self) -> List[Any]:
        return []

    def adt_footprint(self) -> FootprintTriple:
        return FootprintTriple(self.anchor.size, self.anchor.size, 0)

    def adt_internal_ids(self) -> Iterator[int]:
        return iter(())
