"""The release contract: a freed simulated object drops its payload.

A collection is a Python reference cycle while it is live (wrapper <->
its heap object's payload, impl <-> its anchor's payload), and a VM is
one while it runs (its allocator closure captures it).  The simulated
sweep breaks a dead collection's cycle once its death hook has run, and
``RuntimeEnvironment.release`` -- called by every run driver when the
run ends -- does the same for the survivors and breaks the VM's own
cycles, so swept collections and whole finished runs are freed by
reference counting alone.  These tests run with CPython's cyclic
collector off, then collect under ``gc.DEBUG_SAVEALL``: anything that
only the cyclic collector could free shows up in ``gc.garbage``.
"""

from __future__ import annotations

import gc
import pickle
from collections import Counter

import pytest

from repro.analysis.experiments import run_profiling_overhead
from repro.analysis.heapdump import heap_histogram, render_histogram
from repro.analysis.minheap import min_heap_probe
from repro.cli import main
from repro.collections.base import CollectionImpl
from repro.collections.hashing import HashTableEngine
from repro.collections.wrappers import (ChameleonCollection, ChameleonList,
                                        ChameleonMap, ChameleonSet)
from repro.core.chameleon import Chameleon, RunMetrics
from repro.core.config import ToolConfig
from repro.core.online import OnlineChameleon
from repro.memory.generational import GenerationalGC
from repro.memory.gc import MarkSweepGC
from repro.memory.heap import HeapObject
from repro.profiler.report import build_report
from repro.verify.fuzz import record_workload
from repro.runtime.vm import (RuntimeEnvironment, add_vm_created_hook,
                              remove_vm_created_hook)
from repro.workloads import BENCHMARKS, PmdWorkload, TvlaWorkload

_WATCHED = (HeapObject, ChameleonCollection, CollectionImpl, HashTableEngine)
SCALE = 0.05


def cyclic_garbage(run, everything=False):
    """Types and counts of objects left to the cyclic collector.

    ``run`` executes with CPython's collector off.  By default what it
    returns (the VM) stays referenced while the simulator objects among
    the garbage are counted: what swept objects leave behind.  With
    ``everything``, the result is dropped first and every object counts:
    what a whole finished run leaves behind.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        kept = run()
        if everything:
            kept = None
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage
                         if everything or isinstance(obj, _WATCHED))
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


#: Online TVLA swaps live collections only from this scale on (679
#: swaps, 14 decisions); at 0.2 and below it makes none.
RETROFIT_SCALE = 0.3


def _online_tvla_retrofit():
    tool = OnlineChameleon(ToolConfig(online_retrofit_live=True))
    vm, _, policy = tool._run_online(TvlaWorkload(scale=RETROFIT_SCALE),
                                     None)
    assert policy.retrofitted > 0
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
            pytest.param(_online_tvla_retrofit, id="tvla-online-retrofit"),
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


# ----------------------------------------------------------------------
# A finished run: the driver releases its VM
# ----------------------------------------------------------------------
def _oom_probe(workload_class):
    def run():
        workload = workload_class(scale=SCALE)
        _, metrics = Chameleon().plain_run(workload.fresh())
        limit = metrics.peak_live_bytes - 1
        assert min_heap_probe(ToolConfig(), workload, None, limit) is None
    return run


def _finished(drive, workload_class):
    return lambda: drive(Chameleon(), workload_class(scale=SCALE))


def _online(workload_class, scale, **config):
    return lambda: OnlineChameleon(ToolConfig(**config)).run(
        workload_class(scale=scale))


def _profiling_overhead():
    run_profiling_overhead(scale=SCALE,
                           benchmarks=(TvlaWorkload, PmdWorkload))


_DRIVERS = {"plain": Chameleon.plain_run, "profile": Chameleon.profile,
            "optimize": Chameleon.optimize}
_FINISHED = ([pytest.param(_finished(drive, w), id=f"{w.name}-{kind}")
              for w in BENCHMARKS for kind, drive in _DRIVERS.items()]
             + [pytest.param(_oom_probe(w), id=f"{w.name}-oom-probe")
                for w in BENCHMARKS]
             + [pytest.param(_online(TvlaWorkload, 0.05), id="tvla-online"),
                pytest.param(_online(TvlaWorkload, RETROFIT_SCALE,
                                     online_retrofit_live=True),
                             id="tvla-online-retrofit"),
                pytest.param(_online(PmdWorkload, 0.02), id="pmd-online"),
                pytest.param(_profiling_overhead,
                             id="profiling-overhead"),
                pytest.param(lambda: record_workload("pmd", scale=SCALE),
                             id="pmd-trace-recording")])


@pytest.mark.parametrize("run", _FINISHED)
def test_dropped_run_leaves_no_cycle(run):
    run()  # first-use imports and caches are not the run's garbage
    assert cyclic_garbage(run, everything=True) == Counter()


# ----------------------------------------------------------------------
# What a released VM still answers
# ----------------------------------------------------------------------
def _observable(vm):
    return (RunMetrics.from_vm(vm), heap_histogram(vm),
            heap_histogram(vm, live_only=False),
            pickle.dumps(list(vm.profiler.contexts())),
            build_report(vm.profiler, vm.timeline,
                         vm.contexts).render_top_contexts(10))


def test_release_keeps_what_a_finished_run_answers():
    before = []

    def snapshot_before_release(vm):
        def snapshotting_release():
            assert any(obj.payload is not None for obj in vm.heap.objects())
            before.append(_observable(vm))
            del vm.release
            vm.release()
        vm.release = snapshotting_release

    add_vm_created_hook(snapshot_before_release)
    try:
        vm = Chameleon().profile(TvlaWorkload(scale=SCALE)).vm
    finally:
        remove_vm_created_hook(snapshot_before_release)

    assert vm.released
    assert [_observable(vm)] == before
    vm.release()  # twice is harmless
    assert _observable(vm) == before[0]
    assert all(obj.payload is None and obj.on_death is None
               and obj.sm_map is None for obj in vm.heap.objects())


def test_released_vm_refuses_to_run():
    vm = RuntimeEnvironment()
    ChameleonMap(vm).put("k", 1)
    vm.finish()
    vm.release()
    with pytest.raises(RuntimeError, match="released"):
        vm.allocate("Object", 16)
    with pytest.raises(RuntimeError, match="released"):
        vm.allocate_data()
    with pytest.raises(RuntimeError, match="released"):
        vm.collect()
    with pytest.raises(RuntimeError, match="released"):
        vm.finish()


def test_histogram_command_matches_an_unreleased_vm(capsys):
    vm = Chameleon().make_vm()
    TvlaWorkload(scale=SCALE).run(vm)
    vm.finish()
    expected = render_histogram(heap_histogram(vm), limit=15)

    assert main(["histogram", "tvla", "--scale", str(SCALE)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(expected + "\n")
