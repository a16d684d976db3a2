"""The implementation registry: name -> factory, per-ADT-kind.

Section 4.2: "Our library provides a number of alternative implementations,
and we allow the user to add her own implementations".  The registry is that
extension point.  It maps implementation names (the strings the rule
language's ``implType`` production uses) to factories, records which ADT
kinds each implementation can back, and knows the default implementation
for every source type (``HashMap`` allocations default to ``HashMapImpl``,
and so on).

A process-wide :func:`default_registry` carries the built-ins; tests and
users may build isolated registries or register custom implementations on
the default one.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.collections.base import CollectionImpl, CollectionKind
from repro.collections.hashed_list import HashBackedListImpl
from repro.collections.lists import (ArrayListImpl, EmptyListImpl,
                                     LazyArrayListImpl, LinkedListImpl,
                                     SingletonListImpl)
from repro.collections.primitive_arrays import (BoolArrayImpl,
                                                DoubleArrayImpl,
                                                IntArrayImpl, LongArrayImpl)
from repro.collections.maps import (ArrayMapImpl, HashMapImpl, LazyMapImpl,
                                    LinkedHashMapImpl, SizeAdaptingMapImpl)
from repro.collections.sets import (ArraySetImpl, HashSetImpl, LazySetImpl,
                                    LinkedHashSetImpl, SizeAdaptingSetImpl)

__all__ = ["ImplementationRegistry", "default_registry"]

ImplFactory = Callable[..., CollectionImpl]


class ImplementationRegistry:
    """Named collection-implementation factories, queried by ADT kind."""

    def __init__(self) -> None:
        # Factory tables keyed by the kind's value: wrappers look them up
        # on every construction, and a str hashes in C where the enum's
        # __hash__ is a Python call.
        self._factories: Dict[str, Dict[str, ImplFactory]] = {
            kind.value: {} for kind in CollectionKind}
        self._defaults: Dict[str, str] = {}
        self._src_kinds: Dict[str, CollectionKind] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, name: str, factory: ImplFactory,
                 kinds: Iterable[CollectionKind]) -> None:
        """Register ``factory`` under ``name`` for the given ADT kinds."""
        kinds = list(kinds)
        if not kinds:
            raise ValueError("an implementation must back at least one kind")
        for kind in kinds:
            self._factories[kind.value][name] = factory

    def register_source_type(self, src_type: str, kind: CollectionKind,
                             default_impl: str) -> None:
        """Declare a program-visible source type and its default backing."""
        if default_impl not in self._factories[kind.value]:
            raise KeyError(f"unknown implementation {default_impl!r} "
                           f"for kind {kind.value}")
        self._defaults[src_type] = default_impl
        self._src_kinds[src_type] = kind

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def factory(self, name: str, kind: CollectionKind) -> ImplFactory:
        """The factory of implementation ``name`` backing ADT ``kind``,
        called as ``factory(vm, initial_capacity=..., context_id=...,
        **kwargs)``."""
        factory = self._factories[kind.value].get(name)
        if factory is None:
            raise KeyError(
                f"no implementation named {name!r} can back a {kind.value}")
        return factory

    def create(self, vm, name: str, kind: CollectionKind,
               initial_capacity: Optional[int] = None,
               context_id: Optional[int] = None,
               **kwargs) -> CollectionImpl:
        """Instantiate implementation ``name`` backing ADT ``kind``."""
        return self.factory(name, kind)(
            vm, initial_capacity=initial_capacity, context_id=context_id,
            **kwargs)

    def supports(self, name: str, kind: CollectionKind) -> bool:
        """Whether ``name`` can back ADT ``kind``."""
        return name in self._factories[kind.value]

    def names_for_kind(self, kind: CollectionKind) -> Iterable[str]:
        """All implementation names registered for ``kind``."""
        return sorted(self._factories[kind.value].keys())

    def default_impl_for(self, src_type: str) -> str:
        """The default implementation behind a source type."""
        default = self._defaults.get(src_type)
        if default is None:
            raise KeyError(f"unknown source type {src_type!r}")
        return default

    def kind_of(self, src_type: str) -> CollectionKind:
        """The ADT kind of a source type."""
        kind = self._src_kinds.get(src_type)
        if kind is None:
            raise KeyError(f"unknown source type {src_type!r}")
        return kind

    def known_source_types(self) -> Iterable[str]:
        """Every declared source type."""
        return sorted(self._defaults.keys())


def _build_default_registry() -> ImplementationRegistry:
    registry = ImplementationRegistry()
    L, S, M = CollectionKind.LIST, CollectionKind.SET, CollectionKind.MAP

    registry.register("ArrayList", ArrayListImpl, [L])
    registry.register("LazyArrayList", LazyArrayListImpl, [L])
    registry.register("LinkedList", LinkedListImpl, [L])
    registry.register("SingletonList", SingletonListImpl, [L])
    registry.register("EmptyList", EmptyListImpl, [L])
    registry.register("IntArray", IntArrayImpl, [L])
    registry.register("LongArray", LongArrayImpl, [L])
    registry.register("DoubleArray", DoubleArrayImpl, [L])
    registry.register("BoolArray", BoolArrayImpl, [L])
    # "LinkedHashSet" backs sets natively and lists via the order-keeping
    # hash adapter (the Table 2 ArrayList-with-heavy-contains replacement).
    registry.register("LinkedHashSet", LinkedHashSetImpl, [S])
    registry.register("LinkedHashSet", HashBackedListImpl, [L])

    registry.register("HashSet", HashSetImpl, [S])
    registry.register("ArraySet", ArraySetImpl, [S])
    registry.register("LazySet", LazySetImpl, [S])
    registry.register("SizeAdaptingSet", SizeAdaptingSetImpl, [S])

    registry.register("HashMap", HashMapImpl, [M])
    registry.register("LinkedHashMap", LinkedHashMapImpl, [M])
    registry.register("ArrayMap", ArrayMapImpl, [M])
    registry.register("LazyMap", LazyMapImpl, [M])
    registry.register("SizeAdaptingMap", SizeAdaptingMapImpl, [M])

    registry.register_source_type("ArrayList", L, "ArrayList")
    registry.register_source_type("LinkedList", L, "LinkedList")
    registry.register_source_type("List", L, "ArrayList")
    registry.register_source_type("HashSet", S, "HashSet")
    registry.register_source_type("LinkedHashSet", S, "LinkedHashSet")
    registry.register_source_type("Set", S, "HashSet")
    registry.register_source_type("HashMap", M, "HashMap")
    registry.register_source_type("LinkedHashMap", M, "LinkedHashMap")
    registry.register_source_type("Map", M, "HashMap")
    return registry


_DEFAULT = _build_default_registry()


def default_registry() -> ImplementationRegistry:
    """The process-wide registry pre-loaded with the built-in library."""
    return _DEFAULT
