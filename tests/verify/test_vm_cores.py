"""Differential byte-identity of the operation pipeline against its oracle.

The production op pipeline must be observably indistinguishable from the
plain per-op call chains kept in :mod:`repro.verify.oracle`: same virtual
ticks, same GC cycle statistics, same profiler reports (down to the JSON
serialisation, which pins dict insertion order).  It batches tick
charges into ``clock.pending``, so the hazard this suite hunts is the
*flush boundary* (a clock read that misses pending charges); and
``swap_to``, the one transition that changes what a wrapper's recorded
ops call, must leave the wrapper recording exactly as the oracle's does.

Checked differentially over the committed trace corpus, generated fuzz
traces, and all six paper workloads, across the 2 x 2 grid of op
pipeline x collector (production or reference each); and, for the
allocator, under heap limits that bind, that the live set cannot meet,
that starve the collector (GC-overhead OOM), and that are never reached.
"""

import dataclasses
import functools
import json
import pathlib

import pytest

from repro.collections.maps import LazyMapImpl
from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.core.online import OnlinePolicy
from repro.memory.heap import HeapObject, OutOfMemoryError
from repro.profiler.profiler import SemanticProfiler
from repro.profiler.report import build_report
from repro.runtime.costs import CostModel
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
# Online and applied-policy runs: context capture, policy consultation
# and construction on every allocation
# ----------------------------------------------------------------------


def _tool_vm(ops: str, **kwargs):
    """A VM on the ``ops`` pipeline with the tool's default settings."""
    config = ToolConfig()
    return oracle_vm(ops=ops, gc="production",
                     model=config.memory_model,
                     cost_model=config.cost_model,
                     gc_threshold_bytes=config.gc_threshold_bytes,
                     context_depth=config.context_depth, **kwargs)


def _run_record(vm, workload) -> dict:
    workload.run(vm)
    vm.finish()
    return {
        "ticks": vm.now,
        "gc_cycles": len(vm.timeline.cycles),
        "allocated": vm.heap.total_allocated_objects,
        "freed": vm.heap.total_freed_objects,
        "allocated_bytes": vm.heap.total_allocated_bytes,
        "peak_live": vm.timeline.max_live_data,
    }


def _online_record(workload_class, ops: str) -> dict:
    """An online run with live retrofit, as ``OnlineChameleon`` drives
    it, on the ``ops`` pipeline.  Scale 0.5 is the smallest at which
    every benchmark reaches a decision."""
    tool = Chameleon()
    policy = OnlinePolicy(tool.engine,
                          decide_after=tool.config.online_decide_after,
                          retrofit_live=True)
    vm = _tool_vm(ops, profiler=SemanticProfiler(), policy=policy)
    policy.bind(vm)
    record = _run_record(vm, workload_class(seed=2009, scale=0.5))
    record.update(
        decisions=sorted((context_id, repr(choice))
                         for context_id, choice in policy.decisions.items()),
        decisions_made=policy.decisions_made,
        replacements_chosen=policy.replacements_chosen,
        retrofitted=policy.retrofitted)
    return record


@functools.lru_cache(maxsize=None)
def _fig7_policy(workload_class):
    """The policy Fig. 7 applies: built from a profile of the workload."""
    tool = Chameleon()
    session = tool.profile(workload_class(seed=2009, scale=0.05))
    return tool.build_policy(session.suggestions)


def _applied_record(workload_class, ops: str) -> dict:
    """A plain (counting-collector) run under the Fig. 7 offline
    policy, as ``Chameleon.plain_run`` drives it, on ``ops``."""
    policy = _fig7_policy(workload_class)
    vm = _tool_vm(ops, gc_attribution=False)
    lookups = policy.applied_lookups
    vm.policy = policy.bind(vm)
    record = _run_record(vm, workload_class(seed=2009, scale=0.05))
    record["applied_lookups"] = policy.applied_lookups - lookups
    return record


@pytest.mark.parametrize("workload_class", BENCHMARKS,
                         ids=lambda w: w.name)
def test_workload_online_runs_identical_across_cores(workload_class):
    reference = _online_record(workload_class, "reference")
    assert reference["decisions_made"] > 0, "online policy never decided"
    # PMD's replaced contexts hold only short-lived lists: nothing live
    # to retrofit when a decision lands.
    assert reference["retrofitted"] > 0 or workload_class.name == "pmd", \
        "no live instance retrofitted"
    production = _online_record(workload_class, "production")
    for key in reference:
        assert production[key] == reference[key], \
            f"{workload_class.name}: online {key} diverges on the " \
            f"production ops"


@pytest.mark.parametrize("workload_class", BENCHMARKS,
                         ids=lambda w: w.name)
def test_workload_applied_policy_runs_identical_across_cores(
        workload_class):
    reference = _applied_record(workload_class, "reference")
    assert reference["applied_lookups"] > 0, "policy never applied"
    production = _applied_record(workload_class, "production")
    for key in reference:
        assert production[key] == reference[key], \
            f"{workload_class.name}: applied-policy {key} diverges on " \
            f"the production ops"


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
# swap_to: the only transition of a live wrapper's dispatch
# ----------------------------------------------------------------------


class TestPlanInvalidation:
    def test_swap_to_matches_reference(self):
        def script(vm):
            seto = ChameleonSet(vm)
            seto.pin()
            for i in range(12):
                seto.add(i % 5)
            seto.swap_to("ArraySet")
            for i in range(12):
                seto.contains(i)
            vm.finish()
            return vm.now, list(seto.object_info.counts)

        reference = script(ReferenceRuntimeEnvironment(
            gc_threshold_bytes=None, profiler=SemanticProfiler()))
        fast = script(RuntimeEnvironment(gc_threshold_bytes=None,
                                         profiler=SemanticProfiler()))
        assert fast == reference


# ----------------------------------------------------------------------
# The allocator: field pinning and its rare branches
# ----------------------------------------------------------------------


class TestFastAllocate:
    def _pair(self, **kwargs):
        return (ReferenceRuntimeEnvironment(**kwargs),
                RuntimeEnvironment(**kwargs))

    def test_fast_allocate_matches_reference_fields(self):
        """Pins the HeapObject field list the inlined constructor in
        ``RuntimeEnvironment._install_allocate`` stores by hand: a
        slot added to HeapObject without a matching store here must
        fail loudly, not ship objects with missing attributes."""
        ref_vm, fast_vm = self._pair(gc_threshold_bytes=None)
        ref_obj = ref_vm.allocate("T", 20, payload="p", context_id=7)
        fast_obj = fast_vm.allocate("T", 20, payload="p", context_id=7)
        field_names = HeapObject.__slots__
        assert not hasattr(fast_obj, "__dict__")
        unset = [name for name in field_names
                 if not hasattr(fast_obj, name)]
        assert not unset, \
            f"fast allocator leaves slots {unset} of HeapObject unset"
        for name in field_names:
            assert getattr(fast_obj, name) == getattr(ref_obj, name), \
                f"field {name!r} diverges"
        assert fast_vm.now == ref_vm.now
        assert fast_vm.heap.total_allocated_bytes \
            == ref_vm.heap.total_allocated_bytes

    def test_negative_size_matches_reference(self):
        def outcome(vm):
            try:
                obj = vm.allocate("T", -8)
            except Exception as exc:  # noqa: BLE001 - pinned differentially
                return ("raised", type(exc).__name__)
            return ("size", obj.size, vm.now)

        ref_vm, fast_vm = self._pair(gc_threshold_bytes=None)
        assert outcome(fast_vm) == outcome(ref_vm)
        # The production allocator rejects the size before any side
        # effect: no tick, no threshold credit, no heap store.
        assert fast_vm.now == 0
        assert fast_vm._bytes_since_gc == 0
        assert fast_vm.heap.total_allocated_objects == 0

    @pytest.mark.parametrize("constant", ["alloc_base",
                                          "alloc_per_16_bytes",
                                          "wrapper_delegation",
                                          "profile_op",
                                          "hash_compute", "hash_probe",
                                          "entry_link"])
    def test_negative_cost_constants_rejected_at_construction(self,
                                                             constant):
        """The allocator, the wrappers and the hash engine batch their
        charges into ``clock.pending``, which must never go negative, so
        the constants are validated once: when the VM is built (its
        allocator's and the wrappers' constants), and when a hash-backed
        collection builds its engine (a lazy one too, before any
        operation)."""
        costs = CostModel().with_overrides(**{constant: -1})
        with pytest.raises(ValueError, match="cannot charge negative ticks"):
            LazyMapImpl(RuntimeEnvironment(cost_model=costs))

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
# Bounded heaps: the limit test, its collection and both OOM flavours
# ----------------------------------------------------------------------


def _bounded_record(vm_class, run, heap_limit, **kwargs) -> dict:
    """Run ``run(vm)`` to completion or OOM on a fresh ``vm_class``;
    returns its observable record."""
    vm = vm_class(heap_limit=heap_limit, **kwargs)
    try:
        run(vm)
        vm.finish()
        oom = None
    except OutOfMemoryError as exc:
        oom = str(exc)
    return {
        "ticks": vm.now,
        "cycles": json.dumps([dataclasses.asdict(cycle)
                              for cycle in vm.timeline.cycles]),
        "gc_cycles": len(vm.timeline.cycles),
        "peak_live": vm.timeline.max_live_data,
        "oom": oom,
        "oom_raised": vm.oom_raised,
        "allocated": vm.heap.total_allocated_objects,
        "occupied": vm.heap.occupied_bytes,
    }


def _bounded_pair(run, heap_limit, **kwargs):
    """(reference, production) records of the same bounded run."""
    reference = _bounded_record(ReferenceRuntimeEnvironment, run,
                                heap_limit, **kwargs)
    production = _bounded_record(RuntimeEnvironment, run, heap_limit,
                                 **kwargs)
    return reference, production


def _workload_run(workload_class):
    """A plain (Fig. 7 configuration) run of a scale-0.05 benchmark on
    the tool's default VM settings."""
    config = Chameleon().config
    workload = workload_class(seed=2009, scale=0.05)
    vm_kwargs = {"model": config.memory_model,
                 "cost_model": config.cost_model,
                 "gc_threshold_bytes": config.gc_threshold_bytes,
                 "context_depth": config.context_depth}

    def run(vm):
        workload.fresh().run(vm)

    return run, vm_kwargs


_BOUNDED_WORKLOADS = [cls for cls in BENCHMARKS
                      if cls.name in ("tvla", "pmd")]


@functools.lru_cache(maxsize=None)
def _unbounded(workload_class):
    run, vm_kwargs = _workload_run(workload_class)
    return _bounded_pair(run, None, **vm_kwargs)


class TestBoundedHeap:
    @pytest.mark.parametrize("workload_class", _BOUNDED_WORKLOADS,
                             ids=lambda w: w.name)
    def test_binding_limit_completes_identically(self, workload_class):
        run, vm_kwargs = _workload_run(workload_class)
        reference_free, _ = _unbounded(workload_class)
        limit = reference_free["peak_live"] * 5 // 4
        reference, production = _bounded_pair(run, limit, **vm_kwargs)
        assert reference["oom"] is None, "limit too tight to complete"
        assert reference["gc_cycles"] > reference_free["gc_cycles"], \
            "limit never bound: no extra heap-pressure collections"
        assert production == reference

    @pytest.mark.parametrize("workload_class", _BOUNDED_WORKLOADS,
                             ids=lambda w: w.name)
    def test_limit_below_peak_live_ooms_identically(self, workload_class):
        run, vm_kwargs = _workload_run(workload_class)
        limit = _unbounded(workload_class)[0]["peak_live"] * 9 // 10
        reference, production = _bounded_pair(run, limit, **vm_kwargs)
        assert reference["oom"] is not None
        assert reference["oom_raised"]
        assert production == reference

    def test_low_yield_collections_oom_identically(self):
        """Pinned data fills all but two slots; every heap-pressure
        cycle then reclaims two garbage objects (128 B, under the 4%
        yield floor of a 4096 B heap), so the fourth such cycle in a
        row is a GC-overhead OOM although the request still fits."""
        limit = 4096

        def run(vm):
            for _ in range(62):
                vm.add_root(vm.allocate("Pinned", 64))
            for _ in range(64):
                vm.allocate("Garbage", 64)

        reference, production = _bounded_pair(run, limit,
                                              gc_threshold_bytes=None)
        assert reference["oom"] is not None
        assert reference["gc_cycles"] == 4
        assert reference["occupied"] + 64 <= limit, \
            "capacity OOM, not the low-yield one"
        assert production == reference

    def test_exact_fit_does_not_collect(self):
        """``occupied + aligned == limit`` fits; one alignment unit more
        collects first."""
        def run(vm):
            vm.add_root(vm.allocate("Pinned", 48))
            vm.allocate("Garbage", 16)
            assert len(vm.timeline.cycles) == 0
            vm.allocate("Garbage", 8)
            assert len(vm.timeline.cycles) == 1

        reference, production = _bounded_pair(run, 64,
                                              gc_threshold_bytes=None)
        assert reference["oom"] is None
        assert production == reference

    @pytest.mark.parametrize("workload_class", _BOUNDED_WORKLOADS,
                             ids=lambda w: w.name)
    def test_unreachable_limit_matches_unbounded(self, workload_class):
        run, vm_kwargs = _workload_run(workload_class)
        reference_free, production_free = _unbounded(workload_class)
        reference, production = _bounded_pair(run, 1 << 40, **vm_kwargs)
        assert production == reference
        assert production == production_free
        assert reference_free == production_free


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
