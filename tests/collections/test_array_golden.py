"""Golden ticks, footprints and GC statistics of the array-backed impls.

The companion of :mod:`tests.collections.test_hash_engine_golden` for
the ``Object[]`` and primitive-array storage: ArrayList, LazyArrayList,
the primitive-array family (Int/Long/Double/BoolArray), ArraySet,
ArrayMap, and SizeAdaptingSet/Map across their array-to-hash
conversion (the maps run the hash golden's map script).  One scripted run
per implementation and starting capacity grows the backing array from
its default (and from zero), inserts at both ends and the middle,
overwrites, scans for hits and misses, removes, iterates, clears and
refills, under a GC threshold small enough that collections land
mid-operation.  Every op's result, tick delta, footprint triple and
capacity, the per-cycle GC statistics and the heap's allocation totals
are folded into a digest; the golden values were recorded before the
primitive arrays became one family and the array impls shared their
regrow code, and must never move.
"""

import pytest

from repro.collections import (ArrayListImpl, ArrayMapImpl, ArraySetImpl,
                               BoolArrayImpl, DoubleArrayImpl, IntArrayImpl,
                               LazyArrayListImpl, LongArrayImpl,
                               SizeAdaptingMapImpl, SizeAdaptingSetImpl)
from tests.collections.test_hash_engine_golden import (INTS, STRS, _run_map,
                                                       _Script)


class _StorageScript(_Script):
    """A :class:`_Script` that also logs the collection's footprint
    triple, size, capacity and (for hybrids) conversion state after each
    op, and an op's exception type in place of its result."""

    def new(self, factory):
        before = self.vm.now
        self.c = super().new(factory)
        self.log.append(["new", None, self.vm.now - before, self._state()])
        return self.c

    def _state(self):
        c = self.c
        triple = c.adt_footprint()
        return [triple.live, triple.used, triple.core, c.size,
                getattr(c, "capacity", None), getattr(c, "is_hashed", None)]

    def op(self, name, fn, *args):
        before = self.vm.now
        try:
            result = super().op(name, fn, *args)
        except (IndexError, TypeError) as error:
            # The exception's type is the contract, not its text.
            self.log.append([name, ["raise", type(error).__name__],
                             self.vm.now - before])
            result = None
        self.log[-1].append(self._state())
        return result


def _run_list(factory, values, missing, foreign=None):
    """``values(records)``: 16 storable elements; ``missing``: a value
    stored nowhere; ``foreign``: a value the impl rejects (``None`` for
    the boxed lists, which store anything)."""
    s = _StorageScript()
    c = s.new(factory)
    v = values(s.records)
    s.op("index_of", c.index_of, missing)
    s.op("get", c.get, 0)
    for value in v[:12]:  # past the default capacity of 10
        s.op("add", c.add, value)
    s.op("add_at", c.add_at, 0, v[12])
    s.op("add_at", c.add_at, 6, v[13])
    s.op("add_at", c.add_at, c.size, v[14])
    s.op("add_at", c.add_at, c.size + 1, v[15])
    if foreign is not None:
        s.op("add", c.add, foreign)
        s.op("set_at", c.set_at, 0, foreign)
    s.op("get", c.get, 0)
    s.op("get", c.get, 7)
    s.op("get", c.get, c.size - 1)
    s.op("get", c.get, c.size)
    s.op("set_at", c.set_at, 3, v[15])
    s.op("index_of", c.index_of, v[0])
    s.op("index_of", c.index_of, v[11])
    s.op("index_of", c.index_of, missing)
    s.op("contains", c.contains, v[14])
    s.op("contains", c.contains, missing)
    s.op("remove_at", c.remove_at, 0)
    s.op("remove_at", c.remove_at, 5)
    s.op("remove_at", c.remove_at, c.size - 1)
    s.op("remove", c.remove_value, v[4])
    s.op("remove", c.remove_value, missing)
    s.op("remove_first", c.remove_first)
    s.op("values", lambda: list(c.iter_values()))
    s.op("collect", lambda: s.vm.collect().live_data)
    s.op("clear", c.clear)
    s.op("add", c.add, v[1])
    s.op("add", c.add, v[1])
    s.op("index_of", c.index_of, v[1])
    s.op("collect", lambda: s.vm.collect().live_data)
    return s.digest()


def _run_set(factory):
    s = _StorageScript()
    c = s.new(factory)
    r = s.records
    s.op("contains", c.contains, INTS[0])
    s.op("remove", c.remove_value, INTS[0])
    for value in INTS[:10] + STRS[:3] + r[:3]:
        s.op("add", c.add, value)
    s.op("add", c.add, INTS[2])  # a duplicate neither grows nor converts
    s.op("add", c.add, r[1])
    s.op("add", c.add, None)    # the 17th element
    s.op("add", c.add, STRS[3])
    for value in INTS + STRS + r:
        s.op("contains", c.contains, value)
    s.op("remove", c.remove_value, INTS[6])
    s.op("remove", c.remove_value, STRS[0])
    s.op("remove", c.remove_value, r[2])
    s.op("remove", c.remove_value, r[2])
    s.op("remove", c.remove_value, None)
    s.op("values", lambda: list(c.iter_values()))
    s.op("collect", lambda: s.vm.collect().live_data)
    s.op("clear", c.clear)
    s.op("add", c.add, r[5])
    s.op("contains", c.contains, r[5])
    s.op("collect", lambda: s.vm.collect().live_data)
    return s.digest()


def _boxed(records):
    return INTS[:5] + STRS[:4] + records[:4] + [None, 7, "x"]


#: name -> (class, values, missing value, foreign value).
PRIMITIVES = {
    "IntArray": (IntArrayImpl, [(-1) ** i * i * 97 for i in range(16)],
                 5, 1.5),
    "LongArray": (LongArrayImpl, [(i << 36) - i for i in range(16)],
                  5, True),
    "DoubleArray": (DoubleArrayImpl, [i * 0.5 - 3 for i in range(15)] + [4],
                    1.25, "1.0"),
    "BoolArray": (BoolArrayImpl, [i % 3 == 0 for i in range(16)], 2, 1),
}


def _primitive(name, **kwargs):
    impl_class, values, missing, foreign = PRIMITIVES[name]
    return lambda: _run_list(lambda vm: impl_class(vm, **kwargs),
                             lambda records: values, missing, foreign)


def _boxed_list(impl_class, **kwargs):
    return lambda: _run_list(lambda vm: impl_class(vm, **kwargs), _boxed,
                             "missing")


def _set(impl_class, **kwargs):
    return lambda: _run_set(lambda vm: impl_class(vm, **kwargs))


def _map(impl_class):
    # The hash golden's map script (which also runs these maps from
    # small capacities), with footprints logged.
    return lambda: _run_map(impl_class, _StorageScript)


SCRIPTS = {
    "ArrayList": _boxed_list(ArrayListImpl),
    "ArrayList@0": _boxed_list(ArrayListImpl, initial_capacity=0),
    "LazyArrayList": _boxed_list(LazyArrayListImpl),
    "LazyArrayList@3": _boxed_list(LazyArrayListImpl, initial_capacity=3),
    "IntArray": _primitive("IntArray"),
    "IntArray@0": _primitive("IntArray", initial_capacity=0),
    "LongArray": _primitive("LongArray"),
    "LongArray@0": _primitive("LongArray", initial_capacity=0),
    "DoubleArray": _primitive("DoubleArray"),
    "BoolArray": _primitive("BoolArray"),
    "BoolArray@0": _primitive("BoolArray", initial_capacity=0),
    "ArraySet": _set(ArraySetImpl),
    "ArraySet@0": _set(ArraySetImpl, initial_capacity=0),
    # Converts on the 17th distinct element, mid-script.
    "SizeAdaptingSet": _set(SizeAdaptingSetImpl),
    "SizeAdaptingSet@0/t3": _set(SizeAdaptingSetImpl, initial_capacity=0,
                                 conversion_threshold=3),
    "ArrayMap": _map(ArrayMapImpl),
    "SizeAdaptingMap": _map(SizeAdaptingMapImpl),
}

#: (ticks, GC cycles, allocated objects, freed objects, record digest).
GOLDEN = {
    "ArrayList": (6396, 3, 22, 13, "dddd1dee8b5d50af"),
    "ArrayList@0": (8473, 4, 27, 18, "f9e9ff6048c4000b"),
    "ArrayMap": (13596, 6, 47, 37, "96a73461a262782a"),
    "ArraySet": (8951, 4, 27, 19, "5e0e84ffd5db962c"),
    "ArraySet@0": (8966, 4, 30, 22, "c345fb9793cd5f2e"),
    "BoolArray": (4239, 2, 9, 1, "e4efd97b1817e667"),
    "BoolArray@0": (4284, 2, 14, 6, "35aaa39118824618"),
    "DoubleArray": (4264, 2, 9, 1, "81d423fb602887f6"),
    "IntArray": (4268, 2, 9, 1, "fb1fc0c1d4199110"),
    "IntArray@0": (6331, 3, 14, 6, "13a939edb91090df"),
    "LazyArrayList": (6396, 3, 22, 13, "b39122ae222b8ffe"),
    "LazyArrayList@3": (8472, 4, 25, 16, "73274d323fa35169"),
    "LongArray": (4275, 2, 9, 1, "6833a6defef8e55f"),
    "LongArray@0": (6342, 3, 14, 6, "cc45df724729d103"),
    "SizeAdaptingMap": (21295, 9, 103, 91, "6a76ed4d9c7fff7b"),
    "SizeAdaptingSet": (16325, 7, 62, 52, "945e94b4e82b9fad"),
    "SizeAdaptingSet@0/t3": (13981, 6, 54, 44, "264c4486df117d97"),
}


@pytest.mark.parametrize("impl", sorted(SCRIPTS))
def test_golden_ticks_footprints_and_gc_stats(impl):
    assert SCRIPTS[impl]() == GOLDEN[impl]
