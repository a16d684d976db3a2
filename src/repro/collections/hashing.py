"""Chained hash-table engine shared by the hash-backed sets and maps.

Models the classic ``java.util.HashMap`` design the paper's space analysis
is built on: an ``Object[]`` bucket table plus one *entry object per
mapping*.  On the 32-bit layout an entry weighs 24 bytes (header + three
pointers / cached hash) -- the figure section 2.3 uses to explain why
shrinking initial capacities cannot fix HashMap bloat.  The linked variant
(``LinkedHashMap``/``LinkedHashSet``) carries two extra references per
entry and iterates in insertion order without scanning empty buckets.

The engine is *not* an ADT itself: it attaches its table array and entry
objects to an owning :class:`~repro.collections.base.CollectionImpl`'s
anchor, and the owner reports them as ADT internals to the collector.
Every hash-backed impl owns its engine through one layer,
:class:`~repro.collections.storage.HashStorage`.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple

from repro.collections.base import (_HASH_MASK, _IDENTITY_MULTIPLIER,
                                    CollectionImpl, _LazyBoxPool,
                                    java_hash_code)
from repro.memory.heap import HeapObject

__all__ = ["HashEntry", "HashTableEngine", "next_power_of_two"]

#: The not-present sentinel :meth:`HashTableEngine.put` and
#: :meth:`HashTableEngine.remove` return.
_MISSING = object()


def next_power_of_two(value: int) -> int:
    """Smallest power of two >= max(value, 1)."""
    power = 1
    while power < value:
        power <<= 1
    return power


class HashEntry:
    """One chained entry: key, optional value, cached hash, heap object."""

    __slots__ = ("key", "value", "hash_code", "heap_obj")

    def __init__(self, key: Any, value: Any, hash_code: int,
                 heap_obj: HeapObject) -> None:
        self.key = key
        self.value = value
        self.hash_code = hash_code
        self.heap_obj = heap_obj


class HashTableEngine:
    """Bucket table + entry-object management for an owning ADT.

    Charging contract: every op adds its hash + probe ticks to
    ``clock.pending`` once, right after probing (before anything that
    could allocate and hence collect); an insert or a remove adds its
    entry-link ticks once more, an insert after the entry is allocated,
    and a resize adds its relink ticks after the new table is.  The cost
    constants are validated here, once, so no pending add can go
    negative.

    The engine boxes primitive elements in its own :class:`BoxPool`,
    built on first use, which the owner reads as its ``boxes``
    (:attr:`repro.collections.storage.HashStorage.boxes`).
    """

    boxes = _LazyBoxPool()

    def __init__(self, owner: CollectionImpl, *, is_map: bool,
                 linked: bool = False, initial_capacity: Optional[int] = None,
                 load_factor: float = 0.75, lazy: bool = False) -> None:
        if load_factor <= 0:
            raise ValueError("load factor must be positive")
        # The owner fields the engine reads, bound once instead of an
        # ``owner`` back-pointer: with no engine -> impl edge, a swept
        # impl is freed by reference counting (DESIGN.md section 3.5).
        vm = owner.vm
        self.vm = vm
        self.clock = vm.clock
        self._operands = vm.heap.operands
        self.anchor = owner.anchor
        self.charge = owner.charge
        self.context_id = owner.context_id
        costs = vm.costs
        self._hash_compute = costs.hash_compute
        self._hash_probe = costs.hash_probe
        self._entry_link = costs.entry_link
        if min(self._hash_compute, self._hash_probe, self._entry_link) < 0:
            raise ValueError("cannot charge negative ticks")
        self.is_map = is_map
        self.linked = linked
        self.load_factor = load_factor
        self.default_capacity = next_power_of_two(
            initial_capacity if initial_capacity is not None else 16)
        self._table_obj: Optional[HeapObject] = None
        self._buckets: List[List[HashEntry]] = []
        self._order: List[HashEntry] = []  # insertion order (linked variant)
        self._count = 0
        self._occupied = 0  # non-empty buckets, maintained incrementally
        # Structural version: bumped whenever the footprint or the
        # internal-object set could have changed (new/removed entries,
        # table (re)allocation, clear).  Footprint caches key on it.
        self._version = 0
        self._ids_version = -1
        self._ids_list: List[int] = []
        self._entry_type = ("LinkedHashMap$Entry" if linked
                            else "HashMap$Entry")
        # Header, key/value/next refs (+ before/after when linked) and
        # the cached hash.
        self._entry_size = vm.object_sizes[5 if linked else 3, 1]
        if not lazy:
            self._allocate_table(self.default_capacity)

    # ------------------------------------------------------------------
    # Table management
    # ------------------------------------------------------------------
    @property
    def entry_size(self) -> int:
        """Bytes per entry object (3 refs + hash; linked adds 2 refs).

        The layout model is immutable, so the size is computed once at
        construction -- this property sits on the per-GC-cycle footprint
        path.
        """
        return self._entry_size

    @property
    def entry_type_name(self) -> str:
        """Simulated type of the entry objects."""
        return self._entry_type

    def _allocate_table(self, capacity: int) -> None:
        vm = self.vm
        old = self._table_obj
        new = vm.allocate("Object[]", vm.ref_array_sizes[capacity],
                          context_id=self.context_id)
        self._table_obj = new
        self._version += 1
        if old is None:
            self.anchor.add_ref(new.obj_id)
            self._buckets = [[] for _ in range(capacity)]
            return
        for ref_id, count in old.refs.items():
            new.refs[ref_id] = count
        old.clear_refs()
        self.anchor.remove_ref(old.obj_id)
        self.anchor.add_ref(new.obj_id)
        old_buckets = self._buckets
        buckets = self._buckets = [[] for _ in range(capacity)]
        mask = capacity - 1
        for bucket in old_buckets:
            for entry in bucket:
                buckets[entry.hash_code & mask].append(entry)
        self._occupied = sum(1 for bucket in buckets if bucket)
        self.clock.pending += self._entry_link * self._count

    @property
    def capacity(self) -> int:
        """Current bucket-table capacity (0 before lazy allocation)."""
        return len(self._buckets)

    @property
    def count(self) -> int:
        """Number of stored entries."""
        return self._count

    # ------------------------------------------------------------------
    # Operations
    #
    # ``put`` and ``get_entry`` hash and probe inline (``remove`` probes
    # through ``get_entry``), charging the hash computation plus one
    # probe per chain link examined -- the constant-factor cost that
    # makes small ArrayMaps faster than small HashMaps.  A record key
    # compares by identity, which examines exactly the links the general
    # hash-then-``values_equal`` test does.
    # ------------------------------------------------------------------
    def put(self, key: Any, value: Any) -> Any:
        """Insert or update; returns the previous value (or the module's
        ``_MISSING`` sentinel)."""
        if self._table_obj is None:
            self._allocate_table(self.default_capacity)
        buckets = self._buckets
        record_key = type(key) is HeapObject
        if record_key:
            hash_code = key.obj_id * _IDENTITY_MULTIPLIER & _HASH_MASK
            bucket = buckets[hash_code & (len(buckets) - 1)]
            probes = 1
            for entry in bucket:
                if entry.key is key:
                    break
                probes += 1
            else:
                entry = None
        else:
            hash_code = java_hash_code(key) & _HASH_MASK
            bucket = buckets[hash_code & (len(buckets) - 1)]
            key_type = type(key)
            probes = 1
            for entry in bucket:
                if (entry.hash_code == hash_code
                        and type(entry.key) is key_type
                        and entry.key == key):
                    break
                probes += 1
            else:
                entry = None
        clock = self.clock
        clock.pending += self._hash_compute + self._hash_probe * probes
        is_map = self.is_map
        if entry is not None:
            old = entry.value
            if is_map:
                boxes = self.boxes
                heap_obj = entry.heap_obj
                heap_obj.remove_ref(boxes.release(old))
                try:
                    new_ref = boxes.ref_for(value)
                except BaseException:
                    # Boxing the new value ran out of memory: the entry
                    # keeps ``old``, so take its count back (boxing it
                    # afresh if the release dropped its last one).
                    heap_obj.add_ref(boxes.ref_for(old))
                    raise
                heap_obj.add_ref(new_ref)
            entry.value = value
            return old
        heap_entry = self.vm.allocate(self._entry_type, self._entry_size,
                                      context_id=self.context_id)
        # The entry is unreachable until linked into the table, and
        # ref_for() may allocate boxes (and hence trigger a GC, or raise
        # OutOfMemoryError); keep it on the operand stack across that
        # window, popped on every path -- unless every element it stores
        # is a record, which needs no box.
        if record_key and (not is_map or type(value) is HeapObject):
            heap_entry.add_ref(key.obj_id)
            if is_map:
                heap_entry.add_ref(value.obj_id)
        else:
            boxes = self.boxes
            operands = self._operands
            operands.append(heap_entry)
            try:
                heap_entry.add_ref(boxes.ref_for(key))
                if is_map:
                    heap_entry.add_ref(boxes.ref_for(value))
            except BaseException:
                # The entry is never linked: if boxing the value raised,
                # take back the key's count too.
                if heap_entry.refs:
                    boxes.release(key)
                raise
            finally:
                operands.pop()
        self._table_obj.add_ref(heap_entry.obj_id)
        new_entry = HashEntry(key, value, hash_code, heap_entry)
        if not bucket:
            self._occupied += 1
        bucket.append(new_entry)
        self._order.append(new_entry)
        self._count += 1
        self._version += 1
        clock.pending += self._entry_link
        if self._count > len(buckets) * self.load_factor:
            self._allocate_table(len(buckets) * 2)
        return _MISSING

    def remove(self, key: Any) -> Any:
        """Remove ``key``'s entry; returns old value or the missing
        sentinel."""
        entry = self.get_entry(key)
        if entry is None:
            return _MISSING
        bucket = self._buckets[entry.hash_code & (len(self._buckets) - 1)]
        bucket.remove(entry)
        if not bucket:
            self._occupied -= 1
        self._order.remove(entry)
        boxes = self.boxes
        entry.heap_obj.remove_ref(boxes.release(entry.key))
        if self.is_map:
            entry.heap_obj.remove_ref(boxes.release(entry.value))
        self._table_obj.remove_ref(entry.heap_obj.obj_id)
        self._count -= 1
        self._version += 1
        self.clock.pending += self._entry_link
        return entry.value

    def get_entry(self, key: Any) -> Optional[HashEntry]:
        """Probe for ``key`` without mutating."""
        buckets = self._buckets
        if not buckets:
            self.clock.pending += self._hash_compute + self._hash_probe
            return None
        probes = 1
        if type(key) is HeapObject:
            hash_code = key.obj_id * _IDENTITY_MULTIPLIER & _HASH_MASK
            for entry in buckets[hash_code & (len(buckets) - 1)]:
                if entry.key is key:
                    break
                probes += 1
            else:
                entry = None
        else:
            hash_code = java_hash_code(key) & _HASH_MASK
            key_type = type(key)
            for entry in buckets[hash_code & (len(buckets) - 1)]:
                if (entry.hash_code == hash_code
                        and type(entry.key) is key_type
                        and entry.key == key):
                    break
                probes += 1
            else:
                entry = None
        self.clock.pending += self._hash_compute + self._hash_probe * probes
        return entry

    def clear(self) -> None:
        """Drop every entry (table retained, as in Java)."""
        boxes = self.boxes
        for entry in self._order:
            entry.heap_obj.remove_ref(boxes.release(entry.key))
            if self.is_map:
                entry.heap_obj.remove_ref(boxes.release(entry.value))
            self._table_obj.remove_ref(entry.heap_obj.obj_id)
        self.clock.pending += self._entry_link * self._count
        self._order.clear()
        for bucket in self._buckets:
            bucket.clear()
        self._count = 0
        self._occupied = 0
        self._version += 1

    # ------------------------------------------------------------------
    # Iteration
    # ------------------------------------------------------------------
    def iter_entries(self) -> Iterator[HashEntry]:
        """Iterate entries, charging the variant-appropriate cost.

        The plain table scans every bucket slot (paying for empty slots,
        which is why iterating sparse HashMaps is slow); the linked
        variant walks the insertion-order chain only.
        """
        costs = self.vm.costs
        if self.linked:
            for entry in list(self._order):
                self.charge(costs.link_traverse_per_node)
                yield entry
        else:
            # Snapshot the bucket table at iteration start so a rehash
            # mid-iteration cannot reorder or repeat entries (uniform
            # mutation-during-iteration semantics across impls).  Charges
            # are unchanged: one array access per bucket slot, one link
            # traversal per entry.
            for bucket in [list(b) for b in self._buckets]:
                self.charge(costs.array_access)
                for entry in bucket:
                    self.charge(costs.link_traverse_per_node)
                    yield entry

    # ------------------------------------------------------------------
    # Footprint pieces
    # ------------------------------------------------------------------
    def live_bytes(self) -> int:
        """Table array + all entry objects."""
        table = self._table_obj.size if self._table_obj is not None else 0
        return table + self.entry_size * self._count

    @property
    def footprint_version(self) -> int:
        """Structural version for footprint/internal-id caches.

        Unchanged version guarantees :meth:`live_bytes`,
        :meth:`used_bytes`, and :meth:`internal_ids` all return the same
        values as last time; value-only updates don't bump it.
        """
        return self._version

    def used_bytes(self) -> int:
        """Occupied table slots + all entry objects."""
        if self._table_obj is None:
            return 0
        model = self.vm.model
        return (model.align(model.array_header_bytes
                            + self._occupied * model.pointer_bytes)
                + self.entry_size * self._count)

    def internal_ids(self) -> List[int]:
        """Heap ids of the table and every entry object.

        Cached per structural version: the GC asks for this once per
        anchor per cycle, and between collections the set only changes
        when the version does.
        """
        if self._ids_version != self._version:
            ids = ([self._table_obj.obj_id]
                   if self._table_obj is not None else [])
            ids.extend(entry.heap_obj.obj_id for entry in self._order)
            self._ids_list = ids
            self._ids_version = self._version
        return self._ids_list

    def peek_keys(self) -> List[Any]:
        """Keys in insertion order, without charging."""
        return [entry.key for entry in self._order]

    def peek_pairs(self) -> List[Tuple[Any, Any]]:
        """(key, value) pairs in insertion order, without charging."""
        return [(entry.key, entry.value) for entry in self._order]
