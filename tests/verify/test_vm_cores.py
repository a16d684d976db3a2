"""Differential byte-identity of the operation pipeline against its oracle.

The production op pipeline must be observably indistinguishable from the
plain per-op call chains kept in :mod:`repro.verify.oracle`: same virtual
ticks, same GC cycle statistics, same profiler reports (down to the JSON
serialisation, which pins dict insertion order).  It batches tick
charges into ``clock.pending`` and dispatches recorded wrapper
operations through inline-cached plans, so the hazards this suite hunts
are *flush boundaries* (a clock read that misses pending charges) and
*stale plans* (an op recorded against a plan built before
``set_tracer`` / ``enable_profiling`` / ``disable_profiling`` /
``swap_to`` changed what recording must do).

Checked differentially over the committed trace corpus, generated fuzz
traces, and all six paper workloads, across the 2 x 2 grid of op
pipeline x collector (production or reference each).
"""

import dataclasses
import functools
import json
import pathlib

import pytest

from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.core.chameleon import Chameleon
from repro.memory.heap import HeapObject, OutOfMemoryError
from repro.profiler.profiler import SemanticProfiler
from repro.profiler.report import build_report
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.generate import generate_trace
from repro.verify.oracle import (PIPELINES, ReferenceRuntimeEnvironment,
                                 oracle_vm)
from repro.verify.trace import BASELINE_IMPLS, Trace, replay_trace
from repro.workloads import BENCHMARKS

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

#: (ops, gc) legs; the first is the all-reference baseline.
GRID = [(ops, gc) for ops in PIPELINES for gc in PIPELINES]


# ----------------------------------------------------------------------
# Trace replay across the pipeline grid
# ----------------------------------------------------------------------


def _replay(trace: Trace, ops: str, gc: str):
    impl = BASELINE_IMPLS[trace.kind]
    baseline = (ops, gc) == GRID[0]
    return replay_trace(
        trace, impl, gc_detail=True, sanitize=not baseline,
        vm_factory=functools.partial(oracle_vm, ops=ops, gc=gc))


def _assert_identical(trace: Trace) -> None:
    reference = _replay(trace, *GRID[0])
    for ops, gc in GRID[1:]:
        leg = f"ops={ops} gc={gc}"
        result = _replay(trace, ops, gc)
        assert not result.violations, \
            f"{leg}: sanitizer violations {result.violations}"
        assert result.ticks == reference.ticks, f"{leg}: tick divergence"
        assert result.outcomes == reference.outcomes, \
            f"{leg}: observable outcome divergence"
        assert result.gc_detail["freed_ids"] \
            == reference.gc_detail["freed_ids"], \
            f"{leg}: freed-object sequence divergence"
        assert result.gc_detail["surviving_ids"] \
            == reference.gc_detail["surviving_ids"], \
            f"{leg}: surviving-heap divergence"
        assert json.dumps(result.gc_detail["cycles"]) \
            == json.dumps(reference.gc_detail["cycles"]), \
            f"{leg}: per-cycle GC stats divergence"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_traces_identical_across_cores(path):
    _assert_identical(Trace.from_json(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("adt", ["list", "set", "map"])
@pytest.mark.parametrize("seed", range(4))
def test_generated_traces_identical_across_cores(adt, seed):
    _assert_identical(generate_trace(adt, seed=seed, n_ops=40))


# ----------------------------------------------------------------------
# Full profiled workload runs: the end-to-end observable record
# ----------------------------------------------------------------------


def _profile_record(workload_class, ops: str) -> dict:
    tool = Chameleon()
    workload = workload_class(seed=2009, scale=0.02)
    vm = oracle_vm(ops=ops, gc="production",
                   profiler=tool._make_profiler())
    workload.run(vm)
    vm.finish()
    report = build_report(vm.profiler, vm.timeline, vm.contexts)
    return {
        "ticks": vm.now,
        "gc_cycles": len(vm.timeline.cycles),
        "allocated": vm.heap.total_allocated_objects,
        "freed": vm.heap.total_freed_objects,
        # The strictest observable: the whole rendered report, dict
        # order included.
        "report": json.dumps(report.to_dict(), sort_keys=True,
                             default=repr),
    }


@pytest.mark.parametrize("workload_class", BENCHMARKS,
                         ids=lambda w: w.name)
def test_workload_profile_runs_identical_across_cores(workload_class):
    reference = _profile_record(workload_class, "reference")
    assert reference["gc_cycles"] > 0, "run never collected"
    production = _profile_record(workload_class, "production")
    for key in reference:
        assert production[key] == reference[key], \
            f"{workload_class.name}: {key} diverges on the production ops"


# ----------------------------------------------------------------------
# Flush boundaries: vm.now mid-burst (satellite: accumulator flush)
# ----------------------------------------------------------------------


def _burst(vm, read_points):
    """A fixed op burst with ``vm.now`` read at the given op indices;
    returns the observed (index, ticks) pairs plus the final clock."""
    lst = ChameleonList(vm)
    lst.pin()
    mapping = ChameleonMap(vm)
    mapping.pin()
    observed = []
    for i in range(64):
        lst.add(i)
        mapping.put(i, i)
        lst.get(i // 2)
        mapping.contains_key(i)
        if i in read_points:
            observed.append((i, vm.now))
    vm.finish()
    return observed, vm.now


class TestClockFlushBoundaries:
    def test_now_mid_burst_flushes_and_matches_reference(self):
        read_points = {3, 17, 40}
        ref_vm = ReferenceRuntimeEnvironment(gc_threshold_bytes=None,
                                             profiler=SemanticProfiler())
        fast_vm = RuntimeEnvironment(gc_threshold_bytes=None,
                                     profiler=SemanticProfiler())
        ref_observed, ref_final = _burst(ref_vm, read_points)
        fast_observed, fast_final = _burst(fast_vm, read_points)
        assert fast_observed == ref_observed, \
            "mid-burst vm.now reads diverge from the reference ops"
        assert fast_final == ref_final

    def test_now_drains_the_pending_accumulator(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        lst = ChameleonList(vm)
        lst.pin()
        for i in range(8):
            lst.add(i)
        assert vm.clock.pending > 0, \
            "op pipeline never batched a charge (test is vacuous)"
        before = vm.clock.pending
        now = vm.now
        assert vm.clock.pending == 0
        assert vm.now == now  # idempotent read: nothing left to fold
        assert now >= before

    def test_finish_flushes_pending(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        lst = ChameleonList(vm)
        lst.pin()
        lst.add(1)
        lst.size()
        vm.finish()
        assert vm.clock.pending == 0


# ----------------------------------------------------------------------
# Plan invalidation (satellite: the inline-cache staleness hazard)
# ----------------------------------------------------------------------


def _toggle_script(vm):
    """Ops interleaved with every plan-invalidating VM transition;
    returns the end-of-run observable record."""
    lst = ChameleonList(vm)
    lst.pin()
    for i in range(10):
        lst.add(i)
    profiler = vm.enable_profiling(SemanticProfiler())
    # Allocated *after* the toggle: profiled on both pipelines.
    mapping = ChameleonMap(vm)
    mapping.pin()
    for i in range(10):
        mapping.put(i, i)
        lst.get(i)          # pre-toggle instance: stays unprofiled
        mapping.get(i)
    vm.disable_profiling()
    for i in range(10):
        mapping.contains_key(i)
        lst.contains(i)
    vm.enable_profiling()
    vm.set_tracer(None)     # stamp bump, tracer behaviour unchanged
    for i in range(10):
        mapping.put(i, -i)
    vm.finish()
    assert profiler is vm.profiler
    oci = mapping.object_info
    return {
        "ticks": vm.now,
        "counts": list(oci.counts),
        "max_size": oci.max_size,
        "final_size": oci.final_size,
        "unprofiled_stays_unprofiled": lst.object_info is None,
    }


class TestPlanInvalidation:
    def _built(self, vm):
        """A wrapper with a freshly built, current plan."""
        lst = ChameleonList(vm)
        lst.pin()
        lst.add(1)
        assert lst._plan is not None
        assert lst._plan[0] is vm.dispatch_stamp
        return lst

    @pytest.mark.parametrize("bump", [
        lambda vm: vm.enable_profiling(SemanticProfiler()),
        lambda vm: vm.disable_profiling(),
        lambda vm: vm.set_tracer(None),
    ], ids=["enable_profiling", "disable_profiling", "set_tracer"])
    def test_vm_transitions_stale_the_plan(self, bump):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        lst = self._built(vm)
        stale = lst._plan
        bump(vm)
        assert stale[0] is not vm.dispatch_stamp, \
            "transition did not move the dispatch stamp"
        lst.size()  # next recorded op rebuilds against the new state
        assert lst._plan is not stale
        assert lst._plan[0] is vm.dispatch_stamp

    def test_swap_to_drops_the_plan(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        lst = self._built(vm)
        stale = lst._plan
        lst.swap_to("LinkedList")
        assert lst._plan is None
        lst.add(2)
        rebuilt = lst._plan
        assert rebuilt is not None and rebuilt is not stale
        # The rebuilt plan binds the *new* impl's methods.
        assert rebuilt[7].__self__ is lst.impl

    def test_mid_run_toggles_match_reference(self):
        reference = _toggle_script(
            ReferenceRuntimeEnvironment(gc_threshold_bytes=None))
        fast = _toggle_script(
            RuntimeEnvironment(gc_threshold_bytes=None))
        assert fast == reference

    def test_swap_to_matches_reference(self):
        def script(vm):
            vm.enable_profiling(SemanticProfiler())
            seto = ChameleonSet(vm)
            seto.pin()
            for i in range(12):
                seto.add(i % 5)
            seto.swap_to("ArraySet")
            for i in range(12):
                seto.contains(i)
            vm.finish()
            return vm.now, list(seto.object_info.counts)

        reference = script(
            ReferenceRuntimeEnvironment(gc_threshold_bytes=None))
        fast = script(RuntimeEnvironment(gc_threshold_bytes=None))
        assert fast == reference


# ----------------------------------------------------------------------
# The fast allocator: field pinning and rare-branch delegation
# ----------------------------------------------------------------------


class TestFastAllocate:
    def _pair(self, **kwargs):
        return (ReferenceRuntimeEnvironment(**kwargs),
                RuntimeEnvironment(**kwargs))

    def test_fast_allocate_matches_reference_fields(self):
        """Pins the HeapObject field list the inlined constructor in
        ``RuntimeEnvironment._install_fast_allocate`` stores by hand: a
        field added to the dataclass without a matching store here must
        fail loudly, not ship objects with missing attributes."""
        ref_vm, fast_vm = self._pair(gc_threshold_bytes=None)
        ref_obj = ref_vm.allocate("T", 20, payload="p", context_id=7)
        fast_obj = fast_vm.allocate("T", 20, payload="p", context_id=7)
        field_names = [f.name for f in dataclasses.fields(HeapObject)]
        assert set(vars(fast_obj)) == set(field_names), \
            "fast allocator stores a different attribute set than the " \
            "dataclass declares"
        for name in field_names:
            assert getattr(fast_obj, name) == getattr(ref_obj, name), \
                f"field {name!r} diverges"
        assert fast_vm.now == ref_vm.now
        assert fast_vm.heap.total_allocated_bytes \
            == ref_vm.heap.total_allocated_bytes

    def test_negative_size_delegates_to_reference_behaviour(self):
        def outcome(vm):
            try:
                obj = vm.allocate("T", -8)
            except Exception as exc:  # noqa: BLE001 - pinned differentially
                return ("raised", type(exc).__name__)
            return ("size", obj.size, vm.now)

        ref_vm, fast_vm = self._pair(gc_threshold_bytes=None)
        assert outcome(fast_vm) == outcome(ref_vm)

    def test_limited_heap_oom_matches_reference(self):
        def fill(vm):
            ticks = []
            with pytest.raises(OutOfMemoryError):
                while True:
                    vm.add_root(vm.allocate("Pinned", 64))
                    ticks.append(vm.now)
            return ticks, vm.heap.total_allocated_objects

        ref_vm, fast_vm = self._pair(heap_limit=2048,
                                     gc_threshold_bytes=None)
        assert fill(fast_vm) == fill(ref_vm)

    def test_allocation_from_death_hook_matches_reference(self):
        def script(vm):
            def resurrectionist(_obj):
                vm.allocate("Shadow", 16)

            vm.allocate("Mortal", 32, on_death=resurrectionist)
            vm.collect()
            vm.collect()  # sweeps the shadow allocated mid-cycle
            return (vm.now, vm.heap.total_allocated_objects,
                    vm.heap.total_freed_objects)

        ref_vm, fast_vm = self._pair(gc_threshold_bytes=None)
        assert script(fast_vm) == script(ref_vm)

    def test_gc_threshold_stays_live(self):
        """The fast closure must read ``gc_threshold_bytes`` per call:
        the perf harness mutates it mid-run to provoke cycles."""
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        for _ in range(8):
            vm.allocate("Garbage", 64)
        assert len(vm.timeline.cycles) == 0
        vm.gc_threshold_bytes = 128
        vm._bytes_since_gc = 0
        for _ in range(8):
            vm.allocate("Garbage", 64)
        assert len(vm.timeline.cycles) > 0


# ----------------------------------------------------------------------
# Oracle plumbing
# ----------------------------------------------------------------------


class TestCoreSelection:
    def test_invalid_core_rejected(self):
        with pytest.raises(ValueError, match="ops"):
            oracle_vm(ops="warp")
        with pytest.raises(ValueError, match="gc"):
            oracle_vm(gc="warp")

    def test_fast_core_selects_fast_wrapper_classes(self):
        """The production VM builds the plan-dispatch wrappers as-is;
        the oracle's reference VM substitutes its per-op twins."""
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        ref_vm = ReferenceRuntimeEnvironment(gc_threshold_bytes=None)
        for cls in (ChameleonList, ChameleonSet, ChameleonMap):
            assert type(cls(vm)) is cls
            twin = cls(ref_vm)
            assert type(twin) is not cls
            assert isinstance(twin, cls)
