"""Rule-condition evaluation against context profiles (point verdicts)."""

import pytest

from repro.collections.base import CollectionKind
from repro.memory.stats import ContextCycleStats, ContextHeapAggregate
from repro.profiler.context_info import ContextInfo
from repro.profiler.counters import Op
from repro.profiler.object_info import ObjectContextInfo
from repro.profiler.report import ContextProfile
from repro.rules.evaluator import (EvaluationError, Tri, decide_condition,
                                   point_environment)
from repro.rules.parser import parse_condition


def make_profile(ops=(), sizes=(), capacities=(), heap_cycles=(),
                 src="ArrayList", kind=CollectionKind.LIST):
    """Build a ContextProfile by absorbing synthetic instances."""
    info = ContextInfo(1, src)
    observations = max(len(sizes), len(capacities), 1) if (sizes or capacities or ops) else 0
    for index in range(observations):
        instance = ObjectContextInfo(
            1, src, src,
            capacities[index] if index < len(capacities) else None)
        for op, counts in ops:
            count = counts[index] if index < len(counts) else 0
            for _ in range(count):
                instance.record_op(op)
        if index < len(sizes):
            instance.record_size(sizes[index])
        info.on_allocation(src)
        info.absorb(instance)
    heap = None
    if heap_cycles:
        heap = ContextHeapAggregate(1)
        for live, used, core in heap_cycles:
            cycle = ContextCycleStats(1)
            cycle.add(live, used, core)
            heap.observe_cycle(cycle)
    return ContextProfile(context_id=1, key=None, info=info, heap=heap,
                          kind=kind)


def check(text, profile, constants=None):
    verdict = decide_condition(parse_condition(text),
                               point_environment(profile), constants or {})
    assert verdict is not Tri.UNKNOWN
    return verdict is Tri.TRUE


class TestOperationBindings:
    def test_op_mean(self):
        profile = make_profile(ops=[(Op.CONTAINS, [4, 8])], sizes=[1, 1])
        assert check("#contains == 6", profile)

    def test_op_variance(self):
        profile = make_profile(ops=[(Op.ADD, [4, 8])], sizes=[1, 1])
        assert check("@add == 2", profile)

    def test_all_ops(self):
        profile = make_profile(ops=[(Op.ADD, [2, 2]), (Op.SIZE, [1, 1])],
                               sizes=[2, 2])
        assert check("allOps == 3", profile)
        assert check("#allOps == 3", profile)

    def test_unseen_op_is_zero(self):
        profile = make_profile(sizes=[1])
        assert check("#removeFirst == 0", profile)


class TestDataBindings:
    def test_size_metrics(self):
        profile = make_profile(sizes=[4, 6])
        assert check("maxSize == 5", profile)
        assert check("avgMaxSize == 5", profile)
        assert check("maxMaxSize == 6", profile)
        assert check("size == 5", profile)  # nothing was removed

    def test_instances(self):
        profile = make_profile(sizes=[1, 2, 3])
        assert check("instances == 3", profile)
        assert check("deadInstances == 3", profile)

    def test_initial_capacity(self):
        profile = make_profile(sizes=[1, 1], capacities=[50, 50])
        assert check("initialCapacity == 50", profile)

    def test_heap_metrics(self):
        profile = make_profile(sizes=[1],
                               heap_cycles=[(100, 60, 20), (200, 120, 40)])
        assert check("totLive == 300", profile)
        assert check("maxLive == 200", profile)
        assert check("totUsed == 180", profile)
        assert check("maxUsed == 120", profile)
        assert check("totCore == 60", profile)
        assert check("maxCore == 40", profile)
        assert check("liveCount == 2", profile)
        assert check("maxLiveCount == 1", profile)
        assert check("potential == 120", profile)
        assert check("maxPotential == 80", profile)

    def test_heap_metrics_default_to_zero(self):
        profile = make_profile(sizes=[1])
        assert check("totLive == 0 & potential == 0", profile)


class TestArithmeticAndBoolean:
    def test_arithmetic(self):
        profile = make_profile(sizes=[10])
        assert check("maxSize * 2 + 1 == 21", profile)
        assert check("maxSize / 2 == 5", profile)
        assert check("maxSize - 12 == -2", profile)

    def test_division_by_zero(self):
        profile = make_profile(sizes=[1])
        with pytest.raises(EvaluationError):
            check("maxSize / (instances - 1) > 0", profile)

    def test_boolean_combinations(self):
        profile = make_profile(sizes=[5])
        assert check("maxSize > 1 & maxSize < 10", profile)
        assert check("maxSize > 100 | maxSize == 5", profile)
        assert check("!(maxSize == 0)", profile)
        assert not check("maxSize > 1 & maxSize > 100", profile)

    def test_float_tolerant_equality(self):
        """Averages like 1/3 must still satisfy == with epsilon."""
        profile = make_profile(ops=[(Op.ADD, [1, 0, 0])], sizes=[1, 1, 1])
        assert check("#add * 3 == 1", profile)

    def test_comparison_operators(self):
        profile = make_profile(sizes=[5])
        assert check("maxSize >= 5", profile)
        assert check("maxSize <= 5", profile)
        assert check("maxSize != 4", profile)
        assert not check("maxSize < 5", profile)


class TestConstants:
    def test_bound_constant(self):
        profile = make_profile(sizes=[5])
        assert check("maxSize < SMALL", profile, {"SMALL": 10})

    def test_unbound_constant_raises(self):
        profile = make_profile(sizes=[5])
        with pytest.raises(EvaluationError) as excinfo:
            check("maxSize < SMALL", profile)
        assert "SMALL" in str(excinfo.value)

