"""Shared machinery of the interchangeable collection implementations.

Every implementation in :mod:`repro.collections` is a Python object that
*models a Java collection's memory behaviour* on the simulated heap: it
allocates an anchor heap object for itself, backing arrays / entry objects
for its internals, charges the virtual clock for every operation, and
answers the :class:`~repro.memory.semantic_maps.AdtFootprint` protocol so
the collection-aware GC can attribute its bytes.

Element identity follows Java semantics: application records
(:class:`~repro.memory.heap.HeapObject` values) compare by identity, while
primitives compare by value and are *boxed* -- storing the int ``7`` in a
reference-based collection allocates a 16-byte box object on the simulated
heap, which is precisely the overhead the paper's ``IntArray``
implementation exists to avoid.
"""

from __future__ import annotations

import enum
import struct
from typing import (TYPE_CHECKING, Any, Dict, Hashable, Iterable,
                    Iterator, Optional, Tuple)

from repro.memory.heap import HeapObject
from repro.memory.semantic_maps import FootprintTriple

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.runtime.vm import RuntimeEnvironment

__all__ = [
    "CollectionKind",
    "UnsupportedOperation",
    "element_key",
    "values_equal",
    "element_hash",
    "java_hash_code",
    "BoxPool",
    "CollectionImpl",
    "ListImpl",
    "SetImpl",
    "MapImpl",
]


class CollectionKind(enum.Enum):
    """The three abstract data types the library provides."""

    LIST = "List"
    SET = "Set"
    MAP = "Map"


class UnsupportedOperation(Exception):
    """An implementation does not support the requested operation
    (immutable singletons, index access on hash-backed lists, ...)."""


def element_key(value: Any) -> Hashable:
    """A hashable identity key for ``value`` under Java-like semantics.

    Heap objects key by identity; everything else keys by type and value
    (so ``1`` and ``True`` stay distinct, as ``Integer``/``Boolean`` would).
    """
    if isinstance(value, HeapObject):
        return ("obj", value.obj_id)
    return ("val", type(value).__name__, value)


def values_equal(a: Any, b: Any) -> bool:
    """Java-like element equality: identity for records, value otherwise."""
    if isinstance(a, HeapObject) or isinstance(b, HeapObject):
        return a is b
    if type(a) is not type(b):
        return False
    return a == b


def element_hash(value: Any) -> int:
    """A deterministic, non-negative hash code for ``value``: the
    identity hash for records, :func:`java_hash_code` otherwise."""
    if isinstance(value, HeapObject):
        # Identity hash, as Object.hashCode() would give.
        return value.obj_id * _IDENTITY_MULTIPLIER & _HASH_MASK
    return java_hash_code(value) & _HASH_MASK


# element_hash's constants; the hash engine inlines the function.
_IDENTITY_MULTIPLIER = 0x9E3779B1
_HASH_MASK = 0x7FFFFFFF
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_CANONICAL_NAN_BITS = 0x7FF8000000000000


def _long_hash(bits: int) -> int:
    """``Long.hashCode()``: ``(int)(v ^ (v >>> 32))`` of a 64-bit ``v``."""
    bits &= _MASK64
    return (bits ^ (bits >> 32)) & _MASK32


def java_hash_code(value: Any) -> int:
    """``value.hashCode()`` as the JLS fixes it for the boxed type the
    value models, as an unsigned 32-bit int.

    ``int`` is an ``Integer`` inside the 32-bit range and a ``Long``
    beyond it; ``str`` is a ``String`` over its UTF-16 code units;
    ``float`` is a ``Double`` (``doubleToLongBits``, NaN canonical);
    ``None`` is ``null``.  A tuple (what traces encode as a pair)
    combines its items as ``List.hashCode()`` does, records by identity.
    Unlike Python's ``hash`` of ``str``, none of this depends on the
    interpreter's hash seed, so simulated bucket layouts -- and every
    tick count they drive -- are the same in every process.
    """
    if value is None:
        return 0
    kind = type(value)
    if kind is bool:
        return 1231 if value else 1237
    if kind is int:
        if -0x80000000 <= value <= 0x7FFFFFFF:
            return value & _MASK32
        return _long_hash(value)
    if kind is str:
        data = value.encode("utf-16-be", "surrogatepass")
        code = 0
        for unit in struct.unpack(f">{len(data) // 2}H", data):
            code = (31 * code + unit) & _MASK32
        return code
    if kind is float:
        bits = (_CANONICAL_NAN_BITS if value != value
                else struct.unpack("<q", struct.pack("<d", value))[0])
        return _long_hash(bits)
    if kind is tuple:
        code = 1
        for item in value:
            code = (31 * code + java_hash_code(item)) & _MASK32
        return code
    if isinstance(value, HeapObject):
        return element_hash(value)
    raise TypeError(f"no Java hash code for {kind.__name__} values")


class BoxPool:
    """Per-collection boxing of primitive elements.

    Maps each stored primitive to a heap-allocated box object with a
    reference count equal to the number of occurrences in the collection.
    Storage sites (backing arrays, entries) reference the box's heap id;
    once the last occurrence is released the pool forgets the box and it
    becomes garbage.

    Heap-object elements pass through unboxed: :meth:`ref_for` simply
    returns their own id.
    """

    def __init__(self, vm: "RuntimeEnvironment") -> None:
        self._vm = vm
        self._boxes: Dict[Hashable, Tuple[int, int]] = {}  # key -> (id, rc)

    def ref_for(self, value: Any) -> int:
        """The heap id a storage site should reference for ``value``,
        allocating a box for primitives.  Call once per stored occurrence."""
        if isinstance(value, HeapObject):
            return value.obj_id
        key = element_key(value)
        entry = self._boxes.get(key)
        if entry is None:
            # A box is a plain object with one int field
            # (MemoryModel.box_size), sized once per VM.
            box = self._vm.allocate("Box", self._vm.object_sizes[0, 1])
            self._boxes[key] = (box.obj_id, 1)
            return box.obj_id
        box_id, refcount = entry
        self._boxes[key] = (box_id, refcount + 1)
        return box_id

    def release(self, value: Any) -> int:
        """Release one stored occurrence of ``value``; returns the heap id
        the storage site must now drop its reference to."""
        if isinstance(value, HeapObject):
            return value.obj_id
        key = element_key(value)
        box_id, refcount = self._boxes[key]
        if refcount == 1:
            del self._boxes[key]
        else:
            self._boxes[key] = (box_id, refcount - 1)
        return box_id

    def peek(self, value: Any) -> Optional[int]:
        """The current heap id for ``value`` without changing refcounts."""
        if isinstance(value, HeapObject):
            return value.obj_id
        entry = self._boxes.get(element_key(value))
        return entry[0] if entry is not None else None

    @property
    def box_count(self) -> int:
        """Number of live boxes in the pool."""
        return len(self._boxes)


class _LazyBoxPool:
    """``boxes`` of an impl (``CollectionImpl.boxes``) or of a hash
    engine: its :class:`BoxPool`, built on first use.

    Most collections never store a primitive (or are never stored
    into), so the pool is created when the first store asks for it and
    then cached in the instance's ``__dict__``, which shadows this
    (non-data) descriptor from then on.
    """

    def __get__(self, holder: Any, owner: Optional[type] = None) -> Any:
        if holder is None:
            return self
        pool = holder.boxes = BoxPool(holder.vm)
        return pool


class CollectionImpl:
    """Base class of every backing implementation.

    Subclasses allocate ``self.anchor`` (their heap presence) in their
    constructor via :meth:`_allocate_anchor` and keep its ``refs`` edges in
    sync with their internal structure.  The anchor's payload is the
    implementation instance itself, which is what the semantic-map registry
    dispatches on.

    Construction pin: until an owner (wrapper, enclosing hybrid) links
    the anchor into the object graph, the only reference to it is the
    constructing code's stack, which the simulated heap models with its
    operand stack (``SimHeap.operands``).  The constructor pushes the
    anchor there right after allocating it, so a GC triggered by one of
    the ADT's own internal allocations (backing array, bucket table)
    cannot sweep the half-built collection; :meth:`adopt` pops it.
    :meth:`_allocate_anchor` does both (ArrayList, the impl programs
    build most, inlines them).  An owner whose impl constructor raises
    truncates the stack back to its depth before the call, so no
    half-built anchor stays rooted.
    """

    IMPL_NAME = "CollectionImpl"
    KINDS: frozenset = frozenset()
    DEFAULT_CAPACITY = 0

    boxes = _LazyBoxPool()

    #: True from the anchor's allocation until :meth:`adopt`: the anchor
    #: is pinned on the operand stack because no owner references it
    #: yet, and the collector accounts it as plain data.
    _construction_rooted = False

    def __init__(self, vm: "RuntimeEnvironment",
                 initial_capacity: Optional[int] = None,
                 context_id: Optional[int] = None) -> None:
        if initial_capacity is not None and initial_capacity < 0:
            raise ValueError("initial capacity cannot be negative")
        self.vm = vm
        self.context_id = context_id
        self.initial_capacity = initial_capacity
        self.anchor: Optional[HeapObject] = None
        # Shortcut the charge chain (impl -> vm -> clock) to a single
        # bound-method call; operation hot loops bill the clock directly.
        self.charge = vm.charge

    # -- anchor management -------------------------------------------------
    def _allocate_anchor(self, ref_fields: int, int_fields: int) -> HeapObject:
        """Allocate the anchor and push its construction pin."""
        vm = self.vm
        anchor = self.anchor = vm.allocate(
            self.IMPL_NAME, vm.object_sizes[ref_fields, int_fields],
            payload=self, context_id=self.context_id)
        vm.heap.operands.append(anchor)
        self._construction_rooted = True
        return anchor

    def adopt(self) -> int:
        """Pop the construction pin; returns the anchor id.

        Called by the new owner immediately *after* it has added its own
        reference to the anchor, so the ADT is continuously reachable.
        """
        if self._construction_rooted:
            self._construction_rooted = False
            operands = self.vm.heap.operands
            anchor = self.anchor
            if operands and operands[-1] is anchor:
                operands.pop()
            else:  # built directly and adopted out of stack order
                operands.remove(anchor)
        return self.anchor.obj_id

    @property
    def anchor_id(self) -> int:
        """Heap id of the implementation's anchor object."""
        return self.anchor.obj_id

    # -- timing ------------------------------------------------------------
    def charge(self, ticks: int) -> None:
        """Bill ``ticks`` of operation cost to the VM clock.

        Shadowed by a bound ``vm.charge`` instance attribute set in
        ``__init__``; this definition documents the contract and covers
        subclasses that skip the base constructor in tests.
        """
        self.vm.charge(ticks)

    # -- AdtFootprint protocol ----------------------------------------------
    def adt_footprint(self) -> FootprintTriple:
        raise NotImplementedError

    def adt_footprint_token(self) -> Optional[int]:
        """A cheap token that changes whenever :meth:`adt_footprint` or
        :meth:`adt_internal_ids` could return something new.

        ``None`` (the default) means "no token": callers must recompute
        every time.  Hash-backed impls return their engine's structural
        version so per-cycle footprint work can be cached; impls whose
        footprint is already O(1) stay at ``None``.
        """
        return None

    def adt_internal_ids(self) -> Iterable[int]:
        raise NotImplementedError

    def adt_element_count(self) -> int:
        return self.size

    # -- common collection surface -------------------------------------------
    @property
    def size(self) -> int:
        """Number of stored elements."""
        raise NotImplementedError

    @property
    def is_empty(self) -> bool:
        """Whether the collection holds no elements."""
        return self.size == 0

    def iter_values(self) -> Iterator[Any]:
        """Iterate stored values, charging per-step traversal cost."""
        raise NotImplementedError

    def peek_values(self) -> list:
        """Stored values as a list, without charging (test/debug hook)."""
        raise NotImplementedError

    def clear(self) -> None:
        """Remove every element."""
        raise NotImplementedError

    def _check_index(self, index: int, upper: int) -> None:
        if not 0 <= index < upper:
            raise IndexError(f"index {index} out of range [0, {upper})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.IMPL_NAME} size={self.size}>"


class ListImpl(CollectionImpl):
    """Operation surface of list implementations (``java.util.List``)."""

    KINDS = frozenset({CollectionKind.LIST})

    def add(self, value: Any) -> None:
        """Append ``value``."""
        raise NotImplementedError

    def add_at(self, index: int, value: Any) -> None:
        """Insert ``value`` at ``index`` (shifting the tail)."""
        raise NotImplementedError

    def get(self, index: int) -> Any:
        """The element at ``index``."""
        raise NotImplementedError

    def set_at(self, index: int, value: Any) -> Any:
        """Replace the element at ``index``; returns the old element."""
        raise NotImplementedError

    def remove_at(self, index: int) -> Any:
        """Remove and return the element at ``index``."""
        raise NotImplementedError

    def remove_first(self) -> Any:
        """Remove and return the head element."""
        if self.is_empty:
            raise IndexError("remove_first on empty list")
        return self.remove_at(0)

    def remove_value(self, value: Any) -> bool:
        """Remove the first occurrence of ``value``; True if found."""
        index = self.index_of(value)
        if index < 0:
            return False
        self.remove_at(index)
        return True

    def index_of(self, value: Any) -> int:
        """Index of the first occurrence of ``value``, or -1."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        """Whether ``value`` occurs in the list."""
        return self.index_of(value) >= 0


class SetImpl(CollectionImpl):
    """Operation surface of set implementations (``java.util.Set``)."""

    KINDS = frozenset({CollectionKind.SET})

    def add(self, value: Any) -> bool:
        """Add ``value``; returns False if it was already present."""
        raise NotImplementedError

    def remove_value(self, value: Any) -> bool:
        """Remove ``value``; True if it was present."""
        raise NotImplementedError

    def contains(self, value: Any) -> bool:
        """Membership test."""
        raise NotImplementedError


class MapImpl(CollectionImpl):
    """Operation surface of map implementations (``java.util.Map``)."""

    KINDS = frozenset({CollectionKind.MAP})

    def put(self, key: Any, value: Any) -> Any:
        """Associate ``key`` with ``value``; returns the previous value."""
        raise NotImplementedError

    def get(self, key: Any) -> Any:
        """The value for ``key``, or ``None``."""
        raise NotImplementedError

    def remove_key(self, key: Any) -> Any:
        """Remove ``key``'s mapping; returns the removed value or ``None``."""
        raise NotImplementedError

    def contains_key(self, key: Any) -> bool:
        """Whether ``key`` is mapped."""
        raise NotImplementedError

    def contains_value(self, value: Any) -> bool:
        """Whether any mapping has ``value`` (linear in all impls)."""
        for _, stored in self.iter_items():
            if values_equal(stored, value):
                return True
        return False

    def iter_items(self) -> Iterator[Tuple[Any, Any]]:
        """Iterate ``(key, value)`` pairs, charging traversal cost."""
        raise NotImplementedError

    def peek_items(self) -> list:
        """Stored pairs as a list, without charging (test/debug hook)."""
        raise NotImplementedError

    def peek_values(self) -> list:
        return [value for _, value in self.peek_items()]

    def iter_values(self) -> Iterator[Any]:
        for _, value in self.iter_items():
            yield value

    def iter_keys(self) -> Iterator[Any]:
        """Iterate keys, charging traversal cost."""
        for key, _ in self.iter_items():
            yield key
