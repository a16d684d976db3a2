"""The sweep's release contract: a swept object drops its payload.

A collection is a Python reference cycle while it is live (wrapper <->
its heap object's payload, impl <-> its anchor's payload).  The
simulated sweep breaks that cycle by setting a dead object's payload to
``None`` after its death hook has run, and the hash engine holds no
back-pointer to its impl, so a swept collection is freed by reference
counting alone.  These tests run with CPython's cyclic collector off,
keep the VM referenced, then collect under ``gc.DEBUG_SAVEALL``: any
simulator object that only the cyclic collector could free shows up in
``gc.garbage``.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.collections.base import CollectionImpl
from repro.collections.hashing import HashTableEngine
from repro.collections.wrappers import (ChameleonCollection, ChameleonList,
                                        ChameleonMap, ChameleonSet)
from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.core.online import OnlineChameleon
from repro.memory.generational import GenerationalGC
from repro.memory.gc import MarkSweepGC
from repro.memory.heap import HeapObject
from repro.runtime.vm import RuntimeEnvironment
from repro.workloads import BENCHMARKS, PmdWorkload

_WATCHED = (HeapObject, ChameleonCollection, CollectionImpl, HashTableEngine)
SCALE = 0.05


def cyclic_garbage(run):
    """Types and counts of simulator objects left to the cyclic collector.

    ``run`` executes with CPython's collector off and returns what must
    stay referenced (the VM) while the garbage is counted.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        kept = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage
                         if isinstance(obj, _WATCHED))
        del kept
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    return leaked


def _plain(workload_class):
    def run():
        vm, _ = Chameleon().plain_run(workload_class(scale=SCALE))
        return vm
    return run


def _profiled(workload_class):
    def run():
        return Chameleon().profile(workload_class(scale=SCALE)).vm
    return run


def _online_pmd():
    tool = OnlineChameleon(ToolConfig(online_retrofit_live=True))
    vm, _, _ = tool._run_online(PmdWorkload(scale=SCALE), None)
    return vm


def _generational(workload_class):
    def run():
        vm = RuntimeEnvironment(gc_threshold_bytes=16 * 1024,
                                collector_factory=GenerationalGC)
        workload_class(scale=SCALE).run(vm)
        vm.finish()
        assert vm.gc.minor_cycles > 0
        return vm
    return run


_RUNS = ([pytest.param(_plain(w), id=f"{w.name}-plain") for w in BENCHMARKS]
         + [pytest.param(_profiled(w), id=f"{w.name}-profiled")
            for w in BENCHMARKS]
         + [pytest.param(_online_pmd, id="pmd-online"),
            pytest.param(_generational(PmdWorkload), id="pmd-generational")])


@pytest.mark.parametrize("run", _RUNS)
def test_swept_objects_leave_no_cycle(run):
    assert cyclic_garbage(run) == Counter()


def test_swapped_then_dropped_wrapper_leaves_no_cycle():
    def run():
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        for wrapper_class, target, fill in (
                (ChameleonMap, "ArrayMap",
                 lambda m: m.put_all({"a": 1, "b": 2})),
                (ChameleonSet, "ArraySet", lambda s: s.add_all([1, 2, 3])),
                (ChameleonList, "LinkedList",
                 lambda xs: xs.add_all([1, 2, 3]))):
            wrapper = wrapper_class(vm)
            fill(wrapper)
            wrapper.swap_to(target)
            del wrapper
        vm.collect()
        assert len(vm.heap) == 0
        return vm

    assert cyclic_garbage(run) == Counter()


@pytest.mark.parametrize("collector, major", [
    pytest.param(MarkSweepGC, True, id="mark-sweep"),
    pytest.param(GenerationalGC, False, id="generational-minor"),
    pytest.param(GenerationalGC, True, id="generational-major"),
])
def test_death_hook_sees_payload_and_survivor_keeps_it(collector, major):
    vm = RuntimeEnvironment(gc_threshold_bytes=None,
                            collector_factory=collector)
    survivor = ChameleonMap(vm)
    vm.add_root(survivor.heap_obj)
    dying = ChameleonMap(vm)
    dying.put("k", 1)
    seen = []
    dying.heap_obj.on_death = lambda obj: seen.append(obj.payload)
    dead_wrapper_obj = dying.heap_obj
    dead_anchor = dying.impl.anchor

    vm.collect(major=major)

    assert seen == [dying]
    assert dead_wrapper_obj.payload is None
    assert dead_anchor.payload is None
    assert survivor.heap_obj.payload is survivor
    assert survivor.impl.anchor.payload is survivor.impl
