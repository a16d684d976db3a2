"""Golden ticks and GC statistics of the chained hash-table engine.

The test oracle (:mod:`repro.verify.oracle`) shares the collection
implementation classes with the production VM, so no differential
harness holds the hash engine's charging to a reference.  This suite
pins it instead: one scripted run per hash-backed implementation (and
ArrayMap, whose scan shares the engine's record fast path), with
record keys and values, colliding int and str keys, in-place updates,
resizes, removes, ``clear``, a lazy table's first ``put`` and ``None``
values, under a GC threshold small enough that collections land
mid-operation.  Every op's tick delta and result, the per-cycle GC
statistics and the heap's allocation totals are folded into a digest;
the golden values were recorded before the engine's probe loop was
inlined and its charges batched (LazySet's before the hash impls shared
one table body), and must never move.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.collections.hashed_list import HashBackedListImpl
from repro.collections.maps import (ArrayMapImpl, HashMapImpl, LazyMapImpl,
                                    LinkedHashMapImpl, SizeAdaptingMapImpl)
from repro.collections.sets import (HashSetImpl, LazySetImpl,
                                    LinkedHashSetImpl)
from repro.memory.heap import HeapObject
from repro.runtime.vm import RuntimeEnvironment

#: Ints whose Java hash codes share one bucket in any table of up to 64
#: slots, and strs whose Java hash codes are all equal.
INTS = [i * 64 for i in range(14)]
STRS = ["Aa", "BB", "AaAa", "BBBB", "AaBB", "BBAa"]


def _plain(value):
    """A JSON-able rendering of an op result (records by heap id)."""
    if isinstance(value, HeapObject):
        return ["rec", value.obj_id]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


class _Script:
    """A VM plus a log of every op's result and tick delta."""

    def __init__(self):
        self.vm = RuntimeEnvironment(gc_threshold_bytes=256)
        self.log = []
        self.records = []
        for _ in range(6):
            record = self.vm.allocate_data("Rec", ref_fields=1)
            self.vm.add_root(record)
            self.records.append(record)

    def new(self, factory):
        """The collection under test, built on this script's VM."""
        return factory(self.vm)

    def op(self, name, fn, *args):
        before = self.vm.now
        result = fn(*args)
        self.log.append([name, _plain(result), self.vm.now - before])
        return result

    def digest(self):
        vm = self.vm
        heap = vm.heap
        record = {
            "ops": self.log,
            "ticks": vm.now,
            "cycles": [dataclasses.asdict(cycle)
                       for cycle in vm.timeline.cycles],
            "heap": [heap.total_allocated_objects,
                     heap.total_allocated_bytes,
                     heap.total_freed_objects, heap.total_freed_bytes,
                     len(heap)],
        }
        text = json.dumps(record)
        return (vm.now, len(vm.timeline.cycles),
                heap.total_allocated_objects, heap.total_freed_objects,
                hashlib.sha256(text.encode()).hexdigest()[:16])


def _run_map(impl_class, script_class=_Script):
    s = script_class()
    r = s.records
    m = s.new(impl_class)
    s.op("get", m.get, INTS[0])
    s.op("remove", m.remove_key, INTS[0])
    s.op("contains", m.contains_key, STRS[0])
    for i, key in enumerate(INTS):  # collide; the 13th put resizes
        s.op("put", m.put, key, i)
    s.op("update", m.put, INTS[3], "three")
    s.op("put", m.put, STRS[0], None)
    s.op("put", m.put, STRS[1], None)
    s.op("put", m.put, STRS[2], 1)
    s.op("put", m.put, STRS[3], 2)
    s.op("put", m.put, r[0], r[1])
    s.op("put", m.put, r[2], 7)
    s.op("put", m.put, r[3], None)
    s.op("update", m.put, r[0], r[4])
    s.op("put", m.put, 7, r[5])
    for key in INTS + STRS + r:
        s.op("get", m.get, key)
    s.op("contains", m.contains_key, r[2])
    s.op("contains", m.contains_key, STRS[5])
    s.op("remove", m.remove_key, INTS[5])
    s.op("remove", m.remove_key, STRS[1])
    s.op("remove", m.remove_key, r[0])
    s.op("remove", m.remove_key, r[0])
    s.op("remove", m.remove_key, STRS[5])
    s.op("items", lambda: list(m.iter_items()))
    s.op("collect", lambda: s.vm.collect().live_data)
    s.op("clear", m.clear)
    s.op("put", m.put, INTS[1], 1)
    s.op("get", m.get, INTS[1])
    s.op("collect", lambda: s.vm.collect().live_data)
    return s.digest()


def _run_set(impl_class):
    s = _Script()
    r = s.records
    c = impl_class(s.vm)
    for value in INTS + STRS[:4] + r[:4]:
        s.op("add", c.add, value)
    s.op("add", c.add, INTS[2])
    s.op("add", c.add, r[1])
    s.op("add", c.add, None)
    for value in INTS + STRS + r:
        s.op("contains", c.contains, value)
    s.op("remove", c.remove_value, INTS[6])
    s.op("remove", c.remove_value, STRS[0])
    s.op("remove", c.remove_value, r[2])
    s.op("remove", c.remove_value, r[2])
    s.op("remove", c.remove_value, STRS[4])
    s.op("values", lambda: list(c.iter_values()))
    s.op("collect", lambda: s.vm.collect().live_data)
    s.op("clear", c.clear)
    s.op("add", c.add, r[5])
    s.op("contains", c.contains, r[5])
    s.op("collect", lambda: s.vm.collect().live_data)
    return s.digest()


def _run_list(impl_class):
    s = _Script()
    r = s.records
    c = impl_class(s.vm)
    for value in INTS + STRS[:4] + r[:4]:
        s.op("add", c.add, value)
    s.op("add", c.add, INTS[2])
    s.op("add", c.add, None)
    for value in INTS[:4] + STRS + r:
        s.op("contains", c.contains, value)
    s.op("index_of", c.index_of, STRS[3])
    s.op("index_of", c.index_of, r[2])
    s.op("get", c.get, 5)
    s.op("remove_at", c.remove_at, 3)
    s.op("remove", c.remove_value, STRS[0])
    s.op("remove", c.remove_value, r[2])
    s.op("remove", c.remove_value, r[2])
    s.op("values", lambda: list(c.iter_values()))
    s.op("collect", lambda: s.vm.collect().live_data)
    s.op("clear", c.clear)
    s.op("add", c.add, r[5])
    s.op("collect", lambda: s.vm.collect().live_data)
    return s.digest()


SCRIPTS = {
    "HashMap": lambda: _run_map(HashMapImpl),
    "LinkedHashMap": lambda: _run_map(LinkedHashMapImpl),
    "LazyMap": lambda: _run_map(LazyMapImpl),
    "HashSet": lambda: _run_set(HashSetImpl),
    "LinkedHashSet": lambda: _run_set(LinkedHashSetImpl),
    "LazySet": lambda: _run_set(LazySetImpl),
    "HashBackedList": lambda: _run_list(HashBackedListImpl),
    # ArrayMap's scan shares the record-identity fast path; the
    # size-adapting map converts to a pre-sized HashMap mid-script.
    "ArrayMap": lambda: _run_map(ArrayMapImpl),
    "SizeAdaptingMap": lambda: _run_map(SizeAdaptingMapImpl),
    # Growth from an empty pair array, and a conversion at size 4 out of
    # a one-pair array.
    "ArrayMap@0": lambda: _run_map(
        lambda vm: ArrayMapImpl(vm, initial_capacity=0)),
    "SizeAdaptingMap@1/t3": lambda: _run_map(
        lambda vm: SizeAdaptingMapImpl(vm, initial_capacity=1,
                                       conversion_threshold=3)),
}

#: (ticks, GC cycles, allocated objects, freed objects, record digest).
GOLDEN = {
    "ArrayMap": (13596, 6, 47, 37, "16c0955f0d009cc8"),
    "HashBackedList": (16172, 7, 52, 43, "85c02178853026ef"),
    "HashMap": (16518, 7, 67, 56, "b7d5fdd2d7335bcb"),
    "HashSet": (14247, 6, 52, 43, "86e76eecb8ac6554"),
    "LazyMap": (16518, 7, 67, 56, "e9cdc5e3f8944033"),
    "LazySet": (14247, 6, 52, 43, "e5226bf2370400bd"),
    "LinkedHashMap": (16493, 7, 67, 56, "5b4c931b57331914"),
    "LinkedHashSet": (16311, 7, 52, 43, "9e3243ac898d220a"),
    "SizeAdaptingMap": (21295, 9, 103, 91, "adac9b0453880643"),
    "ArrayMap@0": (13615, 6, 50, 40, "13f5fcfa57ca5a45"),
    "SizeAdaptingMap@1/t3": (18698, 8, 80, 68, "e97181e7dc3b58f0"),
}


@pytest.mark.parametrize("impl", sorted(SCRIPTS))
def test_golden_ticks_and_gc_stats(impl):
    assert SCRIPTS[impl]() == GOLDEN[impl]
