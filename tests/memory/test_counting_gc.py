"""The counting collector against the attributing one.

``Chameleon.make_vm`` gives uninstrumented VMs (no profiler, no online
policy) a collector built with ``attribute=False``: it skips the
footprints and the per-type/per-context breakdown of Table 3.  The
contract is that nothing a plain run reads moves -- every cycle's
``cycle``, ``tick``, ``kind``, ``live_data``, ``collection_objects``
and freed counts, the run's :class:`RunMetrics` and its clock -- and
that an unattributed timeline refuses to pass zeros off as Table 3
data.  Each comparison below runs the same program on both collectors.
"""

import functools
import pathlib

import pytest

from repro.core.chameleon import Chameleon, RunMetrics
from repro.core.online import OnlineChameleon, OnlinePolicy
from repro.memory.generational import GenerationalGC
from repro.memory.heap import OutOfMemoryError
from repro.profiler.profiler import SemanticProfiler
from repro.profiler.report import build_report
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.trace import BASELINE_IMPLS, Trace, replay_trace
from repro.workloads import BENCHMARKS, TvlaWorkload

SCALE = 0.05
CORPUS = sorted((pathlib.Path(__file__).parents[1] / "verify" / "corpus")
                .glob("*.json"))
COUNTED = ("cycle", "tick", "kind", "live_data", "collection_objects",
           "freed_bytes", "freed_objects")


class AttributingChameleon(Chameleon):
    """A tool whose every VM attributes, as all of them once did."""

    def make_vm(self, profiler=None, policy=None, heap_limit=None):
        config = self.config
        return RuntimeEnvironment(
            model=config.memory_model, cost_model=config.cost_model,
            heap_limit=heap_limit,
            gc_threshold_bytes=config.gc_threshold_bytes,
            context_depth=config.context_depth, profiler=profiler,
            policy=policy, gc_attribution=True)


def _counted(cycles):
    """The per-cycle fields a counting collector must keep exact, from
    :class:`GcCycleStats` objects or their ``asdict`` dicts."""
    return [tuple(cycle[name] if isinstance(cycle, dict)
                  else getattr(cycle, name) for name in COUNTED)
            for cycle in cycles]


def _run(tool, workload, policy=None, heap_limit=None):
    """``plain_run``'s body, keeping the VM of a run that OOMs."""
    vm = tool.make_vm(heap_limit=heap_limit)
    completed = True
    try:
        if policy is not None:
            vm.policy = policy.bind(vm)
        workload.run(vm)
        vm.finish()
    except OutOfMemoryError:
        completed = False
    finally:
        vm.release()
    return vm, RunMetrics.from_vm(vm, completed)


def _assert_same_run(counting, attributing):
    (count_vm, count_metrics), (attr_vm, attr_metrics) = counting, attributing
    assert count_vm.gc.attribute is False
    assert count_vm.timeline.attributed is False
    assert attr_vm.timeline.attributed is True
    assert count_metrics == attr_metrics
    assert count_vm.now == attr_vm.now
    assert _counted(count_vm.timeline.cycles) \
        == _counted(attr_vm.timeline.cycles)
    assert count_vm.timeline.cycles, "the run never collected"


@functools.lru_cache(maxsize=None)
def _auto_policy(workload_class):
    """The Fig. 6 *auto* policy: the tool's suggestions, applied."""
    tool = Chameleon()
    session = tool.profile(workload_class(scale=SCALE))
    return tool.build_policy(session.suggestions)


@pytest.mark.parametrize("variant", ["plain", "auto"])
@pytest.mark.parametrize("workload_class", BENCHMARKS,
                         ids=lambda cls: cls.name)
def test_benchmarks_count_what_they_attribute(workload_class, variant):
    policy = _auto_policy(workload_class) if variant == "auto" else None
    if policy is not None:
        assert len(policy) > 0, "auto variant applies no fix"
    workload = workload_class(scale=SCALE)
    _, unlimited = _run(Chameleon(), workload.fresh(), policy)
    # Unconstrained, and close to the minimum heap where the heap limit
    # (not the allocation threshold) triggers most collections.
    for limit in (None, unlimited.peak_live_bytes * 5 // 4):
        counting = _run(Chameleon(), workload.fresh(), policy, limit)
        attributing = _run(AttributingChameleon(), workload.fresh(),
                           policy, limit)
        _assert_same_run(counting, attributing)
        attributed = attributing[0].timeline.cycles
        assert any(cycle.type_distribution for cycle in attributed)
        if policy is not None:
            assert any(cycle.per_context for cycle in attributed)


def test_plain_run_builds_a_counting_collector():
    vm, metrics = Chameleon().plain_run(TvlaWorkload(scale=SCALE))
    _, reference = AttributingChameleon().plain_run(
        TvlaWorkload(scale=SCALE))
    assert vm.gc.attribute is False
    assert metrics == reference
    for cycle in vm.timeline.cycles:
        assert not cycle.per_context and not cycle.type_distribution


@pytest.mark.parametrize("with_policy", [False, True])
def test_generational_collector_counts_what_it_attributes(with_policy):
    policy = _auto_policy(TvlaWorkload) if with_policy else None

    def run(attribute):
        vm = RuntimeEnvironment(gc_threshold_bytes=16 * 1024,
                                collector_factory=GenerationalGC,
                                gc_attribution=attribute)
        if policy is not None:
            vm.policy = policy.bind(vm)
        TvlaWorkload(scale=SCALE).run(vm)
        vm.finish()
        vm.release()
        return vm, RunMetrics.from_vm(vm)

    counting, attributing = run(False), run(True)
    _assert_same_run(counting, attributing)
    kinds = {cycle.kind for cycle in counting[0].timeline.cycles}
    assert kinds == {"minor", "full"}
    assert counting[0].gc.promoted_objects \
        == attributing[0].gc.promoted_objects


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.name)
def test_corpus_replays_count_what_they_attribute(path):
    trace = Trace.from_json(path.read_text(encoding="utf-8"))

    def replay(attribute):
        return replay_trace(
            trace, BASELINE_IMPLS[trace.kind], gc_detail=True,
            vm_factory=functools.partial(RuntimeEnvironment,
                                         gc_attribution=attribute))

    counting, attributing = replay(False), replay(True)
    assert counting.ticks == attributing.ticks
    assert counting.outcomes == attributing.outcomes
    for key in ("freed_ids", "surviving_ids"):
        assert counting.gc_detail[key] == attributing.gc_detail[key]
    assert attributing.gc_detail["cycles"]
    assert _counted(counting.gc_detail["cycles"]) \
        == _counted(attributing.gc_detail["cycles"])


class TestUnattributedTimeline:
    def test_build_report_refuses_a_counting_timeline(self):
        vm, _ = Chameleon().plain_run(TvlaWorkload(scale=SCALE))
        with pytest.raises(ValueError, match="counting collector"):
            build_report(vm.profiler, vm.timeline, vm.contexts)

    def test_per_context_and_series_reads_refuse(self):
        vm, _ = Chameleon().plain_run(TvlaWorkload(scale=SCALE))
        timeline = vm.timeline
        for read in (lambda: timeline.context(1),
                     timeline.fractions_series,
                     timeline.contexts_by_total_potential):
            with pytest.raises(ValueError, match="unattributed"):
                read()

    def test_profiled_runs_attribute(self):
        session = Chameleon().profile(TvlaWorkload(scale=SCALE))
        timeline = session.vm.timeline
        assert session.vm.gc.attribute is True
        assert any(cycle.per_context for cycle in timeline.cycles)
        assert any(profile.heap is not None
                   for profile in session.report.profiles)

    def test_online_runs_attribute(self):
        vm, _, _ = OnlineChameleon()._run_online(
            TvlaWorkload(scale=SCALE), heap_limit=None)
        assert vm.gc.attribute is True
        assert vm.timeline.per_context

    def test_online_policy_refuses_a_counting_timeline(self):
        vm = RuntimeEnvironment(profiler=SemanticProfiler(),
                                gc_attribution=False)
        vm.policy = OnlinePolicy(Chameleon().engine).bind(vm)
        with pytest.raises(ValueError, match="per-context heap read"):
            TvlaWorkload(scale=SCALE).run(vm)

    def test_a_bare_vm_attributes(self):
        assert RuntimeEnvironment().gc.attribute is True

    def test_an_old_pickle_loads_as_attributed(self):
        """Session stores hold pickled timelines from before the flag."""
        timeline = Chameleon().profile(TvlaWorkload(scale=SCALE)) \
            .report.timeline
        state = dict(vars(timeline))
        del state["attributed"]
        restored = type(timeline).__new__(type(timeline))
        restored.__dict__.update(state)
        assert restored.attributed is True
        assert restored.fractions_series() == timeline.fractions_series()
