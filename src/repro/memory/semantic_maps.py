"""Semantic ADT maps: teaching the collector what a collection *is*.

A collection ADT is not one heap object.  An ``ArrayList`` is a header
object plus a backing ``Object[]``; a ``HashMap`` is a header object, a
table array, and a chain of entry objects.  A collector that "blindly
iterates over the heap" (section 4.3.2) cannot tell a backing array from an
unrelated ``Object[]``.  Chameleon solves this with *semantic maps*:
per-type descriptors, precomputed at VM startup, that tell the collector
how to find a collection's internal objects and how to compute its live,
used and core sizes.

This module reproduces that mechanism.  A :class:`SemanticMap` answers four
questions about an ADT anchor object:

* ``footprint`` -- the (live, used, core) byte triple of Table 3;
* ``internal_ids`` -- the ids of the internal objects that belong to the
  ADT (backing arrays, entries, boxes) so per-type statistics attribute
  them to the collection rather than to ``Object[]``;
* ``element_count`` -- how many application elements the ADT stores;
* ``context_id`` -- the allocation context the statistics aggregate into.

The default map delegates to the :class:`AdtFootprint` protocol implemented
by every collection implementation in :mod:`repro.collections`.  Custom
collection classes (the paper's HSQLDB example) can register their own map
with :meth:`SemanticMapRegistry.register`, keeping the collector fully
parametric in the set of ADTs it understands.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Protocol, runtime_checkable

from repro.memory.heap import HeapObject

__all__ = [
    "AdtFootprint",
    "FootprintTriple",
    "SemanticMap",
    "ProtocolSemanticMap",
    "SemanticMapRegistry",
]


@dataclass(frozen=True)
class FootprintTriple:
    """The three space measures Chameleon tracks for a collection ADT.

    Attributes:
        live: Every byte the ADT occupies -- anchor object, wrapper,
            backing arrays, entry objects, boxed primitives.
        used: The subset of ``live`` actually employed to store the
            current elements (i.e. ``live`` minus slack such as unused
            array capacity).  ``live - used`` is the paper's potential
            space saving for the context.
        core: The lower bound -- the bytes of a bare pointer array holding
            exactly the current elements.
    """

    live: int
    used: int
    core: int

    def __post_init__(self) -> None:
        if not (self.live >= self.used >= self.core >= 0):
            raise ValueError(
                f"footprint must satisfy live >= used >= core >= 0, "
                f"got {self.live}/{self.used}/{self.core}"
            )

    @property
    def slack(self) -> int:
        """Allocated-but-unused bytes (the optimisable gap)."""
        return self.live - self.used

    @property
    def overhead(self) -> int:
        """Bytes beyond the theoretical minimum representation."""
        return self.live - self.core


@runtime_checkable
class AdtFootprint(Protocol):
    """Protocol every collection implementation exposes to the collector."""

    def adt_footprint(self) -> FootprintTriple:
        """Current (live, used, core) bytes of the whole ADT."""

    def adt_internal_ids(self) -> Iterable[int]:
        """Heap ids of internal objects owned by the ADT (excluding the
        anchor object itself and excluding application elements)."""

    def adt_element_count(self) -> int:
        """Number of application elements currently stored."""


class SemanticMap:
    """Base class for per-type semantic maps."""

    def matches(self, obj: HeapObject) -> bool:
        """Whether ``obj`` anchors an ADT this map understands."""
        raise NotImplementedError

    def footprint(self, obj: HeapObject) -> FootprintTriple:
        """(live, used, core) bytes of the ADT anchored at ``obj``."""
        raise NotImplementedError

    def internal_ids(self, obj: HeapObject) -> Iterable[int]:
        """Ids of the ADT's internal objects."""
        raise NotImplementedError

    def element_count(self, obj: HeapObject) -> int:
        """Number of stored application elements."""
        raise NotImplementedError

    def context_id(self, obj: HeapObject) -> Optional[int]:
        """Allocation context of the ADT, if tracked."""
        return obj.context_id


class ProtocolSemanticMap(SemanticMap):
    """Semantic map that reads the :class:`AdtFootprint` protocol off the
    anchor object's payload.

    This is the analog of the paper's offset tables: instead of byte
    offsets into a J9 object, we dispatch to the payload's accessors, which
    are equally "precomputed" -- no name lookup or graph search happens at
    collection time.

    ``isinstance`` against a ``runtime_checkable`` Protocol inspects every
    protocol member on every call, which made this the dominant cost of a
    GC cycle; the verdict only depends on the payload's *class*, so it is
    cached per class.
    """

    def __init__(self) -> None:
        self._class_matches: Dict[type, bool] = {}

    def matches(self, obj: HeapObject) -> bool:
        payload = obj.payload
        if payload is None:
            return False
        cls = payload.__class__
        verdict = self._class_matches.get(cls)
        if verdict is None:
            verdict = isinstance(payload, AdtFootprint)
            self._class_matches[cls] = verdict
        return verdict

    def footprint(self, obj: HeapObject) -> FootprintTriple:
        return obj.payload.adt_footprint()

    def internal_ids(self, obj: HeapObject) -> Iterable[int]:
        return obj.payload.adt_internal_ids()

    def element_count(self, obj: HeapObject) -> int:
        return obj.payload.adt_element_count()


#: Globally unique registry-state versions.  Each registry draws a fresh
#: version on every mutation, so a :class:`HeapObject`'s cached
#: classification can never be mistaken for another registry's (or an
#: older) state.
_registry_versions = itertools.count(1)


class SemanticMapRegistry:
    """Type-name -> :class:`SemanticMap` lookup used by the collector.

    The registry is consulted once per visited object during marking; a
    ``None`` result means the object is not a collection anchor and is
    accounted as plain application data.  The verdict for an object is
    immutable while the registry is unchanged (payloads are assigned at
    allocation), so :meth:`lookup` caches its anchor classification on the
    :class:`HeapObject` itself, stamped with the registry version; any
    ``register``/``unregister`` invalidates every cached verdict at once
    by bumping the version.
    """

    def __init__(self) -> None:
        self._by_type: Dict[str, SemanticMap] = {}
        self._protocol_map = ProtocolSemanticMap()
        self._version = next(_registry_versions)

    def _invalidate(self) -> None:
        self._version = next(_registry_versions)

    def register(self, type_name: str, semantic_map: SemanticMap) -> None:
        """Register a custom map for ``type_name`` (overrides protocol
        dispatch for that type)."""
        self._by_type[type_name] = semantic_map
        self._invalidate()

    def unregister(self, type_name: str) -> None:
        """Remove a previously registered custom map."""
        del self._by_type[type_name]
        self._invalidate()

    def lookup(self, obj: HeapObject) -> Optional[SemanticMap]:
        """Find the semantic map for ``obj``, or ``None`` for plain data."""
        if obj.sm_version == self._version:
            return obj.sm_map
        custom = self._by_type.get(obj.type_name)
        if custom is not None and custom.matches(obj):
            result: Optional[SemanticMap] = custom
        elif self._protocol_map.matches(obj):
            result = self._protocol_map
        else:
            result = None
        obj.sm_version = self._version
        obj.sm_map = result
        return result

    def registered_types(self) -> Iterable[str]:
        """Names with explicitly registered maps."""
        return self._by_type.keys()
