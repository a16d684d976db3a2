"""Cross-pipeline conformance harness for the compiled scenario library.

Every scenario in :mod:`repro.workloads.compiled` must uphold the
guarantees the verification subsystem established for hand-written
replays before it may claim to be a workload:

(a) **replay anchor** -- :func:`repro.verify.trace.replay_trace` of a
    scenario's source trace, which executes the compiled program, is
    tick- and outcome-identical to the interpretive
    :func:`repro.verify.oracle.reference_replay`;
(b) **pipeline-grid identity** -- a full scenario run produces a
    byte-identical tick count and GC-cycle record whether the op
    pipeline and the collector run the production code or the
    reference code of :mod:`repro.verify.oracle` (all four pairings);
(c) **sanitizer-clean** -- a full scenario run under a tight GC
    threshold triggers real collections and zero heap-soundness
    violations.

New scenarios added to ``SCENARIOS`` are picked up automatically; there
is no way to register a scenario that dodges this suite.
"""

import dataclasses

import pytest

from repro.runtime.vm import RuntimeEnvironment
from repro.verify.oracle import PIPELINES, oracle_vm, reference_replay
from repro.verify.sanitizer import HeapSanitizer
from repro.verify.trace import replay_trace
from repro.workloads.compiled import SCENARIOS, make_scenario

SCENARIO_NAMES = sorted(SCENARIOS)


def _scenario_observables(name, ops, gc):
    """One full scenario run's simulated observables under real GC."""
    vm = oracle_vm(ops=ops, gc=gc, gc_threshold_bytes=64 * 1024)
    make_scenario(name).run(vm)
    vm.finish()
    return {
        "ticks": vm.now,
        "cycles": [dataclasses.asdict(cycle)
                   for cycle in vm.timeline.cycles],
    }


class TestScenarioLibraryShape:
    def test_at_least_eight_scenarios(self):
        assert len(SCENARIOS) >= 8

    def test_all_three_families_represented(self):
        families = {spec.family for spec in SCENARIOS.values()}
        assert {"heavy-tail", "phase-shift", "multi-tenant"} <= families

    def test_registered_name_matches_key(self):
        for name, spec in SCENARIOS.items():
            assert spec.name == name
            assert make_scenario(name).name == name


@pytest.mark.parametrize("name", SCENARIO_NAMES)
class TestConformance:
    def test_replay_anchor(self, name):
        """(a): replay_trace == reference_replay, per source trace."""
        workload = make_scenario(name)
        for trace in workload.source_traces():
            reference = reference_replay(trace, trace.baseline_impl)
            result = replay_trace(trace, trace.baseline_impl)
            assert result.ticks == reference.ticks
            assert result.outcomes == reference.outcomes
            assert result.dropped_at == reference.dropped_at

    def test_core_grid_byte_identical(self, name):
        """(b): ticks and GC record equal on every pipeline pairing."""
        reference = _scenario_observables(name, "reference", "reference")
        assert reference["cycles"], "scenario must trigger real GC"
        for ops in PIPELINES:
            for gc in PIPELINES:
                if (ops, gc) == ("reference", "reference"):
                    continue
                leg = _scenario_observables(name, ops, gc)
                assert leg == reference, (ops, gc)

    def test_sanitizer_clean(self, name):
        """(c): a tight-threshold run collects repeatedly, soundly."""
        vm = RuntimeEnvironment(gc_threshold_bytes=32 * 1024)
        sanitizer = HeapSanitizer()
        sanitizer.attach(vm)
        make_scenario(name).run(vm)
        vm.finish()
        assert len(vm.timeline.cycles) >= 2
        assert sanitizer.violations == []

    def test_deterministic_across_runs(self, name):
        """Same seed, same scale -> byte-identical repeat runs."""
        first = _scenario_observables(name, "production", "production")
        second = _scenario_observables(name, "production", "production")
        assert first == second
