"""The interchangeable collections library and its Chameleon wrappers."""

from repro.collections.base import (BoxPool, CollectionImpl, CollectionKind,
                                    ListImpl, MapImpl, SetImpl,
                                    UnsupportedOperation)
from repro.collections.hashed_list import HashBackedListImpl
from repro.collections.iterators import CollectionIterator, make_iterator
from repro.collections.primitive_arrays import (BoolArrayImpl,
                                                DoubleArrayImpl,
                                                IntArrayImpl, LongArrayImpl,
                                                PrimitiveArrayImpl,
                                                make_primitive_array_impl)
from repro.collections.lists import (ArrayListImpl, EmptyListImpl,
                                     LazyArrayListImpl, LinkedListImpl,
                                     SingletonListImpl)
from repro.collections.maps import (ArrayMapImpl, HashMapImpl, LazyMapImpl,
                                    LinkedHashMapImpl, SizeAdaptingMapImpl)
from repro.collections.registry import ImplementationRegistry, default_registry
from repro.collections.sets import (ArraySetImpl, HashSetImpl, LazySetImpl,
                                    LinkedHashSetImpl, SizeAdaptingSetImpl)
from repro.collections.wrappers import (ChameleonCollection, ChameleonList,
                                        ChameleonMap, ChameleonSet)

__all__ = [
    "BoxPool", "CollectionImpl", "CollectionKind", "ListImpl", "MapImpl",
    "SetImpl", "UnsupportedOperation", "HashBackedListImpl",
    "CollectionIterator", "make_iterator", "ArrayListImpl", "EmptyListImpl",
    "IntArrayImpl", "LazyArrayListImpl", "LinkedListImpl",
    "SingletonListImpl", "ArrayMapImpl", "HashMapImpl", "LazyMapImpl",
    "BoolArrayImpl", "DoubleArrayImpl",
    "LongArrayImpl", "PrimitiveArrayImpl", "make_primitive_array_impl",
    "LinkedHashMapImpl", "SizeAdaptingMapImpl", "ImplementationRegistry",
    "default_registry", "ArraySetImpl", "HashSetImpl", "LazySetImpl",
    "LinkedHashSetImpl", "SizeAdaptingSetImpl", "ChameleonCollection",
    "ChameleonList", "ChameleonMap", "ChameleonSet",
]
