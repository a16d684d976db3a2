"""The semantic profiler facade: sampling, death, flush."""

import pytest

from repro.collections.wrappers import ChameleonList, ChameleonMap
from repro.memory.heap import OutOfMemoryError
from repro.profiler.counters import Op
from repro.profiler.profiler import SemanticProfiler
from repro.runtime.sampling import NeverSample, RateSampler
from repro.verify.oracle import PIPELINES, oracle_vm


class TestAllocationSide:
    def test_sampled_allocation_creates_record(self):
        profiler = SemanticProfiler()
        assert profiler.should_sample("HashMap")
        info = profiler.on_allocation(1, "HashMap", "HashMap",
                                      initial_capacity=16)
        assert info.context_id == 1
        assert info.initial_capacity == 16
        assert profiler.live_instance_count == 1
        assert profiler.sampled_allocations == 1

    def test_unsampled_allocations_counted(self):
        profiler = SemanticProfiler(NeverSample())
        assert not profiler.should_sample("HashMap")
        profiler.on_unsampled_allocation("HashMap")
        assert profiler.unsampled_allocations == 1
        assert profiler.live_instance_count == 0

    def test_disabled_profiler_never_samples(self):
        profiler = SemanticProfiler()
        profiler.enabled = False
        assert not profiler.should_sample("HashMap")

    def test_rate_sampling_respected(self):
        profiler = SemanticProfiler(RateSampler(rate=2, warmup=0))
        decisions = [profiler.should_sample("T") for _ in range(4)]
        assert decisions == [True, False, True, False]

    def test_context_created_on_first_allocation(self):
        profiler = SemanticProfiler()
        profiler.on_allocation(3, "HashSet", "ArraySet")
        context = profiler.context_info(3)
        assert context.src_type == "HashSet"
        assert context.instances_allocated == 1
        assert "ArraySet" in context.impl_names


class TestDeathSide:
    def test_death_aggregates_and_releases(self):
        profiler = SemanticProfiler()
        info = profiler.on_allocation(1, "HashMap", "HashMap")
        info.record_op(Op.PUT)
        info.record_size(3)
        profiler.on_death(info)
        assert profiler.live_instance_count == 0
        context = profiler.context_info(1)
        assert context.instances_dead == 1
        assert context.op_mean(Op.PUT) == 1.0
        assert context.avg_max_size == 3.0

    def test_flush_absorbs_survivors(self):
        profiler = SemanticProfiler()
        for _ in range(3):
            info = profiler.on_allocation(1, "HashMap", "HashMap")
            info.record_size(2)
        flushed = profiler.flush()
        assert flushed == 3
        assert profiler.live_instance_count == 0
        assert profiler.context_info(1).instances_dead == 3

    def test_flush_is_idempotent(self):
        profiler = SemanticProfiler()
        profiler.on_allocation(1, "HashMap", "HashMap")
        profiler.flush()
        assert profiler.flush() == 0
        assert profiler.context_info(1).instances_dead == 1

    def test_double_death_is_single_count(self):
        """Death hooks and flush must not double-absorb an instance."""
        profiler = SemanticProfiler()
        info = profiler.on_allocation(1, "HashMap", "HashMap")
        profiler.on_death(info)
        assert profiler.flush() == 0
        assert profiler.context_info(1).instances_dead == 1


class TestQueries:
    def test_contexts_iteration(self):
        profiler = SemanticProfiler()
        profiler.on_allocation(1, "HashMap", "HashMap")
        profiler.on_allocation(2, "HashSet", "HashSet")
        assert {c.context_id for c in profiler.contexts()} == {1, 2}

    def test_unknown_context_is_none(self):
        assert SemanticProfiler().context_info(99) is None


class TestWrapperConstruction:
    """A sampled wrapper is registered only once its heap object exists."""

    @pytest.mark.parametrize("ops", PIPELINES)
    def test_out_of_memory_wrapper_leaves_no_record(self, ops):
        # The anchor and its array fit in 80 bytes; the wrapper does not.
        profiler = SemanticProfiler()
        vm = oracle_vm(ops=ops, gc="production", heap_limit=80,
                       gc_threshold_bytes=None, profiler=profiler)
        with pytest.raises(OutOfMemoryError):
            ChameleonList(vm)
        assert profiler.sampled_allocations == 0
        assert profiler.live_instance_count == 0
        assert [c.instances_allocated for c in profiler.contexts()] == []
        assert profiler.flush() == 0

    @pytest.mark.parametrize("ops", PIPELINES)
    def test_sampled_wrapper_death_folds_its_record(self, ops):
        profiler = SemanticProfiler()
        vm = oracle_vm(ops=ops, gc="production", gc_threshold_bytes=None,
                       profiler=profiler)
        wrapper = ChameleonMap(vm)
        wrapper.put(1, 2)
        context = profiler.context_info(wrapper.context_id)
        assert (profiler.sampled_allocations, context.instances_allocated,
                profiler.live_instance_count) == (1, 1, 1)
        assert wrapper.heap_obj.on_death is not None
        del wrapper
        vm.collect()
        assert profiler.live_instance_count == 0
        assert context.instances_dead == 1
        assert context.op_total(Op.PUT) == 1
