"""Workload substrate: determinism, signatures, expected suggestions.

These are integration tests at reduced scale; the full-shape assertions
against the paper's numbers live in ``benchmarks/``.
"""

import pytest

from repro.core.chameleon import Chameleon
from repro.rules.ast import ActionKind
from repro.workloads import (BENCHMARKS, CONTROLS, BloatWorkload,
                             DacapoCompressWorkload, FindbugsWorkload,
                             FopWorkload, PmdWorkload, SootWorkload,
                             TvlaWorkload, WorkloadRegistry,
                             default_workload_registry)

SCALE = 0.15


@pytest.fixture(scope="module")
def tool():
    return Chameleon()


def _suggested_impls(session):
    return {s.action.impl_name for s in session.suggestions
            if s.action.impl_name}


def _suggested_kinds(session):
    kinds = set()
    for suggestion in session.suggestions:
        kinds.add(suggestion.action.kind)
        for secondary in suggestion.secondary:
            kinds.add(secondary.action.kind)
    return kinds


class TestDeterminism:
    @pytest.mark.parametrize("workload_class", BENCHMARKS + CONTROLS)
    def test_identical_runs(self, tool, workload_class):
        workload = workload_class(scale=SCALE)
        _, first = tool.plain_run(workload)
        _, second = tool.plain_run(workload)
        assert first == second

    def test_scale_controls_size(self, tool):
        _, small = tool.plain_run(TvlaWorkload(scale=0.1))
        _, large = tool.plain_run(TvlaWorkload(scale=0.3))
        assert large.peak_live_bytes > small.peak_live_bytes

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            TvlaWorkload(scale=0)

    def test_describe(self):
        text = TvlaWorkload(seed=7, scale=0.5, manual_fixes=True).describe()
        assert "tvla" in text and "seed=7" in text and "manual" in text


class TestTvlaSignature:
    def test_seven_hashmap_contexts_suggested(self, tool):
        session = tool.profile(TvlaWorkload(scale=SCALE))
        array_map_contexts = [s for s in session.suggestions
                              if s.action.impl_name == "ArrayMap"]
        assert len(array_map_contexts) == 7
        # All seven are HashMap contexts from distinct factories.
        frames = {s.profile.key.site.location for s in array_map_contexts}
        assert len(frames) == 7

    def test_linked_list_context_suggested(self, tool):
        session = tool.profile(TvlaWorkload(scale=SCALE))
        assert "ArrayList" in _suggested_impls(session)

    def test_collections_dominate_live_data(self, tool):
        """The Fig. 2 shape: collections are most of TVLA's heap."""
        session = tool.profile(TvlaWorkload(scale=SCALE))
        timeline = session.report.timeline
        peak = max(s.collection_fraction for s in timeline.cycles)
        assert peak > 0.5


class TestBloatSignature:
    def test_empty_linked_list_context_found(self, tool):
        session = tool.profile(BloatWorkload(scale=SCALE))
        top = session.suggestions[0]
        assert top.profile.src_type == "LinkedList"
        assert top.action.kind in (ActionKind.AVOID_ALLOCATION,
                                   ActionKind.REPLACE)
        assert top.auto_applicable

    def test_spike_visible_in_timeline(self, tool):
        session = tool.profile(BloatWorkload(scale=SCALE))
        fractions = [s.collection_fraction
                     for s in session.report.timeline.cycles]
        assert max(fractions) > 1.5 * fractions[-1]

    def test_manual_fix_removes_the_lists(self, tool):
        _, base = tool.plain_run(BloatWorkload(scale=SCALE))
        _, fixed = tool.plain_run(BloatWorkload(scale=SCALE,
                                                manual_fixes=True))
        assert fixed.peak_live_bytes < 0.6 * base.peak_live_bytes


class TestSootSignature:
    def test_singleton_contexts_found(self, tool):
        session = tool.profile(SootWorkload(scale=SCALE))
        assert "SingletonList" in _suggested_impls(session)

    def test_copied_counters_recorded(self, tool):
        """The useBoxes aggregation produces addAll/copied traffic."""
        from repro.profiler.counters import Op
        session = tool.profile(SootWorkload(scale=SCALE))
        copied_total = sum(info.op_total(Op.COPIED)
                           for info in session.vm.profiler.contexts())
        assert copied_total > 0


class TestFindbugsSignature:
    def test_expected_replacements(self, tool):
        session = tool.profile(FindbugsWorkload(scale=SCALE))
        impls = _suggested_impls(session)
        assert "ArrayMap" in impls
        assert "ArraySet" in impls
        assert "LazyMap" in impls

    def test_capacity_tuning_suggested(self, tool):
        session = tool.profile(FindbugsWorkload(scale=SCALE))
        assert ActionKind.SET_CAPACITY in _suggested_kinds(session)


class TestFopSignature:
    def test_never_used_context_found(self, tool):
        session = tool.profile(FopWorkload(scale=SCALE))
        kinds = {s.action.kind for s in session.suggestions}
        assert ActionKind.AVOID_ALLOCATION in kinds

    def test_array_map_replacement(self, tool):
        session = tool.profile(FopWorkload(scale=SCALE))
        assert "ArrayMap" in _suggested_impls(session)


class TestPmdSignature:
    def test_only_the_oversized_context_fires(self, tool):
        session = tool.profile(PmdWorkload(scale=SCALE))
        assert len(session.suggestions) == 1
        suggestion = session.suggestions[0]
        assert suggestion.action.kind is ActionKind.SET_CAPACITY
        assert suggestion.resolved_capacity <= 4

    def test_no_footprint_win(self, tool):
        workload = PmdWorkload(scale=SCALE)
        session = tool.profile(workload)
        policy = tool.build_policy(session.suggestions)
        _, base = tool.plain_run(workload)
        _, optimized = tool.plain_run(workload, policy=policy)
        assert optimized.peak_live_bytes == pytest.approx(
            base.peak_live_bytes, rel=0.05)

    def test_fewer_gc_cycles_after_fix(self, tool):
        workload = PmdWorkload(scale=0.3)
        session = tool.profile(workload)
        policy = tool.build_policy(session.suggestions)
        _, base = tool.plain_run(workload)
        _, optimized = tool.plain_run(workload, policy=policy)
        assert optimized.gc_cycles < base.gc_cycles


class TestDacapoControls:
    @pytest.mark.parametrize("workload_class", CONTROLS)
    def test_no_significant_suggestions(self, tool, workload_class):
        """'Most of the DaCapo benchmarks do not make intensive use of
        collections ... little potential saving.'"""
        session = tool.profile(workload_class(scale=SCALE))
        assert session.suggestions == []

    def test_hsqldb_collections_invisible_without_custom_map(self, tool):
        """HSQLDB's custom rows register as plain data to the library
        profiler (section 5.1)."""
        session = tool.profile(
            __import__("repro.workloads.dacapo",
                       fromlist=["DacapoHsqldbWorkload"]
                       ).DacapoHsqldbWorkload(scale=SCALE))
        timeline = session.report.timeline
        assert timeline.collection_live.max < 0.1 * timeline.overall_live.max

    def test_compress_heap_is_buffers(self, tool):
        session = tool.profile(DacapoCompressWorkload(scale=SCALE))
        last = session.report.timeline.cycles[-1]
        assert last.type_distribution.get("byte[]", 0) > 0.5 * last.live_data


class TestRegistry:
    def test_registry_covers_all_workloads(self):
        registry = default_workload_registry()
        names = set(registry.names())
        assert {"tvla", "soot", "findbugs", "bloat", "fop", "pmd"} <= names
        workload = registry.create("tvla", scale=0.1)
        assert isinstance(workload, TvlaWorkload)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            default_workload_registry().create("quake")

    def test_registry_is_exactly_benchmarks_and_controls(self):
        # A new workload family must be added here on purpose.
        expected = [cls.name for cls in BENCHMARKS + CONTROLS]
        assert default_workload_registry().names() == sorted(expected)

    def test_default_registry_has_no_silent_collisions(self):
        # Building it registers every benchmark and control once; a name
        # collision would raise.
        registry = default_workload_registry()
        assert len(registry.names()) == len(BENCHMARKS + CONTROLS)
        assert "tvla" in registry.names()

    def test_duplicate_name_is_loud(self):
        registry = WorkloadRegistry()
        registry.register("w", object)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("w", object)
