"""Python calls per collection construction.

Building a collection is the hot path of allocation-heavy programs, and
its time goes in the Python call hops around each simulated allocation
rather than in the allocations themselves.  The construction pin is
therefore one C-level append on the operand stack, ArrayList (nearly
every construction in the workloads) allocates its anchor and first
array inline, and the wrapper links its fresh object and finds its
factory without a helper call.  This counts the Python-level calls
(``sys.setprofile`` "call" events) one construction through the wrapper
makes, on a plain VM, for every registered implementation.

The counts are the same on CPython 3.9, 3.10 and 3.11, before and
after; 3.12 inlines list comprehensions, so each hashed impl makes one
call fewer there (EXPERIMENTS.md, "Straight-line construction").
"""

import sys

import pytest

from repro.collections.base import CollectionKind
from repro.collections.registry import default_registry
from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.runtime.vm import RuntimeEnvironment

_WRAPPERS = {CollectionKind.LIST: ChameleonList,
             CollectionKind.SET: ChameleonSet,
             CollectionKind.MAP: ChameleonMap}

#: Calls per construction when the anchor was a named root and every
#: impl reached its internals through helpers (CPython 3.9-3.11; one
#: fewer for the hashed impls on 3.12): ceilings.
BEFORE = {
    ("List", "ArrayList"): 19, ("List", "BoolArray"): 17,
    ("List", "DoubleArray"): 17, ("List", "EmptyList"): 12,
    ("List", "IntArray"): 17, ("List", "LazyArrayList"): 12,
    ("List", "LinkedHashSet"): 24, ("List", "LinkedList"): 18,
    ("List", "LongArray"): 17, ("List", "SingletonList"): 12,
    ("Set", "ArraySet"): 18, ("Set", "HashSet"): 24,
    ("Set", "LazySet"): 18, ("Set", "LinkedHashSet"): 24,
    ("Set", "SizeAdaptingSet"): 27,
    ("Map", "ArrayMap"): 18, ("Map", "HashMap"): 24,
    ("Map", "LazyMap"): 18, ("Map", "LinkedHashMap"): 24,
    ("Map", "SizeAdaptingMap"): 27,
}

#: Tighter bounds for the impls programs build most.
TARGETS = {("List", "ArrayList"): 9, ("Set", "HashSet"): 14,
           ("Map", "HashMap"): 14}

REGISTERED = [(kind, name) for kind in CollectionKind
              for name in default_registry().names_for_kind(kind)]


def construction_calls(kind: CollectionKind, impl: str) -> int:
    """Python calls made by one ``impl`` construction through the
    ``kind`` wrapper, after a warm-up construction has filled the VM's
    size tables."""
    vm = RuntimeEnvironment()
    wrapper_class = _WRAPPERS[kind]
    wrapper_class(vm, impl=impl)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        wrapper_class(vm, impl=impl)
    finally:
        sys.setprofile(previous)
    return calls


def test_every_registered_impl_has_a_ceiling():
    assert {(kind.value, name) for kind, name in REGISTERED} == set(BEFORE)


@pytest.mark.parametrize("kind, impl", REGISTERED,
                         ids=[f"{kind.value}-{name}"
                              for kind, name in REGISTERED])
def test_construction_makes_no_more_calls_than_before(kind, impl):
    key = (kind.value, impl)
    calls = construction_calls(kind, impl)
    assert calls <= BEFORE[key]
    assert calls <= TARGETS.get(key, BEFORE[key])
