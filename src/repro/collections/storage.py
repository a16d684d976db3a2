"""Storage code the array-backed, hash-backed and size-adapting
implementations share: one body per representation, whatever ADT kind
it backs.

* :class:`ArrayStorage` -- one backing array regrown by copying: the
  ``Object[]`` of ArrayList, ArraySet and ArrayMap (one or two reference
  slots per element) and the unboxed arrays of the primitive-array
  family.  It owns the regrow, the capacity and the footprint triple,
  which is the same for all of them: ``used`` counts the array slots the
  elements occupy and ``core`` is that array's size.
* :class:`ItemArrayStorage` -- an :class:`ArrayStorage` whose elements
  sit in one Python list ``_items``: ArrayList (and LazyArrayList), the
  primitive arrays and ArraySet.  It owns the positional read, the
  linear scan (``index_of``, ArraySet's membership test), iteration,
  ``size`` and ``peek_values``; each impl keeps its own stores, which
  box (or, for primitives, check) what they store.
* :class:`HashStorage` -- a collection stored in a
  :class:`~repro.collections.hashing.HashTableEngine`: HashMap,
  LinkedHashMap and LazyMap directly, and through
  :class:`HashKeyStorage` HashSet, LinkedHashSet, LazySet and the
  LinkedHashSet-backed list (:mod:`repro.collections.hashed_list`).  It
  owns the constructor, ``clear``, ``size``, ``capacity``, the footprint
  triple and token, the internal ids and the engine's box pool; the
  class constants ``LINKED``, ``LAZY`` and ``IS_MAP`` pick the variant.
  :class:`HashKeyStorage` adds the key operations a set and the hashed
  list share (``contains``, ``remove_value``, ``iter_values``,
  ``peek_values``).
* :class:`SizeAdaptingImpl` -- the section 2.3 hybrid: an array-backed
  inner impl until a size threshold, then a one-way conversion to the
  hashed impl of the same kind.

ArrayMap (interleaved key/value scan) and the SizeAdapting forwarders
keep their own operations.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional

from repro.collections.base import BoxPool, CollectionImpl, values_equal
from repro.collections.hashing import (_MISSING, HashTableEngine,
                                       next_power_of_two)
from repro.memory.semantic_maps import FootprintTriple

__all__ = ["grow_capacity", "ArrayStorage", "ItemArrayStorage",
           "HashStorage", "HashKeyStorage", "SizeAdaptingImpl"]


def grow_capacity(old_capacity: int, needed: int) -> int:
    """The paper's ArrayList growth function, clamped to ``needed``."""
    grown = (old_capacity * 3) // 2 + 1
    return max(grown, needed)


class ArrayStorage:
    """Mixin: a collection stored in one backing array of elements
    that take ``SLOTS_PER_ELEMENT`` reference slots each.

    Mixed in ahead of the kind's operation surface (``ListImpl``...).
    The host's constructor sets ``_array = None`` and ``_capacity = 0``
    (then allocates with :meth:`_grow_to`, unless lazy; ArrayList
    allocates its first array inline, sized as :meth:`_array_bytes`
    sizes it); the host keeps ``size`` and the array's ``refs`` in step
    with its elements, and a regrow moves those refs to the new array.
    Primitive arrays override :meth:`_array_bytes` for their slot width.
    """

    ARRAY_TYPE_NAME = "Object[]"
    SLOTS_PER_ELEMENT = 1

    def _array_bytes(self, elements: int) -> int:
        """Aligned size of a backing array holding ``elements``."""
        return self.vm.ref_array_sizes[self.SLOTS_PER_ELEMENT * elements]

    def _grow_to(self, capacity: int) -> None:
        """(Re)allocate the backing array at exactly ``capacity`` elements."""
        old = self._array
        new = self.vm.allocate(self.ARRAY_TYPE_NAME,
                               self._array_bytes(capacity),
                               context_id=self.context_id)
        if old is not None:
            for ref_id, count in old.refs.items():
                new.refs[ref_id] = count
            old.clear_refs()
            self.anchor.remove_ref(old.obj_id)
            self.charge(self.vm.costs.copy_per_element
                        * self.SLOTS_PER_ELEMENT * self.size)
        self.anchor.add_ref(new.obj_id)
        self._array = new
        self._capacity = capacity

    def _ensure_capacity(self, needed: int) -> None:
        if needed > self._capacity:
            self._grow_to(grow_capacity(self._capacity, needed))

    @property
    def capacity(self) -> int:
        """Current backing-array capacity in elements (0 before a lazy
        list's first update)."""
        return self._capacity

    def adt_footprint(self) -> FootprintTriple:
        anchor = self.anchor.size
        if self._array is None:
            return FootprintTriple(anchor, anchor, 0)
        n = self.size
        used = self._array_bytes(n)
        return FootprintTriple(anchor + self._array.size, anchor + used,
                               used if n else 0)

    def adt_internal_ids(self) -> Iterator[int]:
        if self._array is not None:
            yield self._array.obj_id


class ItemArrayStorage(ArrayStorage):
    """Mixin: an :class:`ArrayStorage` whose elements are the Python list
    ``_items``, in array order.

    The reads every such impl charges alike: one array access per
    element read or iterated, one scan step per element compared.
    """

    def get(self, index: int) -> Any:
        self._check_index(index, len(self._items))
        self.charge(self.vm.costs.array_access)
        return self._items[index]

    def index_of(self, value: Any) -> int:
        scanned = 0
        found = -1
        for i, item in enumerate(self._items):
            scanned += 1
            if values_equal(item, value):
                found = i
                break
        self.charge(self.vm.costs.array_scan_per_element * max(scanned, 1))
        return found

    def iter_values(self) -> Iterator[Any]:
        # Snapshot at iteration start: all impls pin snapshot semantics
        # for mutation-during-iteration (tests/collections/test_iterators).
        for item in list(self._items):
            self.charge(self.vm.costs.array_access)
            yield item

    @property
    def size(self) -> int:
        return len(self._items)

    def peek_values(self) -> List[Any]:
        return list(self._items)


class HashStorage:
    """Mixin: a collection stored in a chained hash table (``_table``).

    Mixed in ahead of the kind's operation surface (``MapImpl``...).
    The constructor allocates the anchor and then the engine, which
    allocates the bucket table unless ``LAZY``; ``LINKED`` selects the
    insertion-ordered variant with heavier entries, and ``IS_MAP`` makes
    each entry store a value beside its key (two core slots per element
    instead of one).  Entries box primitive elements in the engine's
    pool, which is this impl's ``boxes``.
    """

    DEFAULT_CAPACITY = 16
    LINKED = False
    LAZY = False
    IS_MAP = False

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self._allocate_anchor(ref_fields=1, int_fields=3)
        self._table = HashTableEngine(
            self, is_map=self.IS_MAP, linked=self.LINKED,
            initial_capacity=(initial_capacity if initial_capacity is not None
                              else self.DEFAULT_CAPACITY),
            lazy=self.LAZY)

    @property
    def boxes(self) -> BoxPool:
        return self._table.boxes

    def clear(self) -> None:
        self._table.clear()

    @property
    def size(self) -> int:
        return self._table.count

    @property
    def capacity(self) -> int:
        """Current bucket-table capacity (0 before a lazy table's first
        update)."""
        return self._table.capacity

    def adt_footprint(self) -> FootprintTriple:
        table = self._table
        n = table.count
        anchor = self.anchor.size
        core = (self.vm.model.core_size(2 * n if self.IS_MAP else n)
                if n else 0)
        return FootprintTriple(anchor + table.live_bytes(),
                               anchor + table.used_bytes(), core)

    def adt_footprint_token(self) -> Optional[int]:
        return self._table.footprint_version

    def adt_internal_ids(self) -> Iterator[int]:
        return self._table.internal_ids()


class HashKeyStorage(HashStorage):
    """Mixin: a :class:`HashStorage` of keys alone, with the operations
    a hash set and the hash-backed list share."""

    def contains(self, value: Any) -> bool:
        return self._table.get_entry(value) is not None

    def remove_value(self, value: Any) -> bool:
        return self._table.remove(value) is not _MISSING

    def iter_values(self) -> Iterator[Any]:
        for entry in self._table.iter_entries():
            yield entry.key

    def peek_values(self) -> List[Any]:
        return self._table.peek_keys()


class SizeAdaptingImpl(CollectionImpl):
    """Hybrid: ``ARRAY_CLASS`` storage until ``conversion_threshold``,
    then a one-way conversion to ``HASH_CLASS`` (section 2.3's second
    solution: "whenever the size of the collection increases beyond a
    certain bound, we can convert the array structure to the original
    implementation").

    The threshold is the knob the paper found "very tricky": 16 gave TVLA
    a low footprint at an 8% slowdown, 13 gave no footprint win, and
    larger values only degraded time.  The E-Hybrid ablation benchmark
    sweeps it.  Subclasses mix in their kind's operation surface, forward
    it to ``_inner`` and copy the elements over in :meth:`_refill`.
    """

    DEFAULT_CAPACITY = 4
    DEFAULT_THRESHOLD = 16
    ARRAY_CLASS: type
    HASH_CLASS: type

    def __init__(self, vm, initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None,
                 conversion_threshold: Optional[int] = None) -> None:
        super().__init__(vm, initial_capacity, context_id)
        self.conversion_threshold = (conversion_threshold
                                     if conversion_threshold is not None
                                     else self.DEFAULT_THRESHOLD)
        if self.conversion_threshold < 1:
            raise ValueError("conversion threshold must be >= 1")
        operands = vm.heap.operands
        depth = len(operands)
        self._allocate_anchor(ref_fields=1, int_fields=1)
        try:
            inner = self.ARRAY_CLASS(vm, initial_capacity, context_id)
        except BaseException:
            del operands[depth:]
            raise
        self.anchor.add_ref(inner.anchor_id)
        inner.adopt()
        self._inner: CollectionImpl = inner
        self.conversions = 0

    def _refill(self, hashed: CollectionImpl) -> None:
        """Store every element of the array-backed ``_inner`` in
        ``hashed``."""
        raise NotImplementedError

    def _maybe_convert(self) -> None:
        if (isinstance(self._inner, self.ARRAY_CLASS)
                and self._inner.size > self.conversion_threshold):
            operands = self.vm.heap.operands
            depth = len(operands)
            try:
                hashed = self.HASH_CLASS(
                    self.vm,
                    initial_capacity=next_power_of_two(self._inner.size * 2),
                    context_id=self.context_id)
                self._refill(hashed)
            except BaseException:
                # The array inner is intact; the unlinked hashed impl
                # loses its pin and is garbage.
                del operands[depth:]
                raise
            self._inner.clear()
            self.anchor.remove_ref(self._inner.anchor_id)
            self.anchor.add_ref(hashed.anchor_id)
            hashed.adopt()
            self._inner = hashed
            self.conversions += 1

    def clear(self) -> None:
        self._inner.clear()

    @property
    def size(self) -> int:
        return self._inner.size

    @property
    def is_hashed(self) -> bool:
        """Whether the one-way conversion has happened."""
        return isinstance(self._inner, self.HASH_CLASS)

    def adt_footprint(self) -> FootprintTriple:
        inner = self._inner.adt_footprint()
        return FootprintTriple(self.anchor.size + inner.live,
                               self.anchor.size + inner.used,
                               inner.core)

    def adt_footprint_token(self) -> Optional[int]:
        # Pre-conversion the array inner has no token (no caching);
        # post-conversion the hash engine's version is safe to reuse
        # because the conversion is one-way -- no stale cross-phase hits.
        return self._inner.adt_footprint_token()

    def adt_internal_ids(self) -> Iterator[int]:
        yield self._inner.anchor_id
        yield from self._inner.adt_internal_ids()
