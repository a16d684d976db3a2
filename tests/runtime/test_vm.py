"""RuntimeEnvironment: allocation, GC triggers, OOM, capture pricing."""

import pytest

from repro.memory.heap import OutOfMemoryError
from repro.profiler.profiler import SemanticProfiler
from repro.runtime.context import ContextKey
from repro.runtime.vm import ImplementationChoice, RuntimeEnvironment


class TestAllocationAndGc:
    def test_allocate_charges_clock(self, vm):
        before = vm.now
        vm.allocate("A", 160)
        assert vm.now > before

    def test_periodic_gc_by_allocation_threshold(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=1024)
        for _ in range(100):
            vm.allocate("A", 64)
        assert vm.gc.cycle_count >= 5

    def test_no_periodic_gc_when_disabled(self, vm):
        for _ in range(100):
            vm.allocate("A", 64)
        assert vm.gc.cycle_count == 0

    def test_limit_triggers_gc_then_oom(self):
        vm = RuntimeEnvironment(heap_limit=1024, gc_threshold_bytes=None)
        root = vm.allocate("Root", 64)
        vm.add_root(root)
        # Garbage is reclaimed on demand: this exceeds 1024 total but
        # never holds more than 64+128 live+garbage at once.
        for _ in range(50):
            vm.allocate("Garbage", 128)
        assert vm.gc.cycle_count >= 1
        # Now fill with live data until the limit truly cannot be met.
        with pytest.raises(OutOfMemoryError):
            for _ in range(50):
                keep = vm.allocate("Live", 128)
                vm.add_root(keep)
        assert vm.oom_raised

    def test_allocate_data_builds_sized_records(self, vm):
        record = vm.allocate_data("Rec", ref_fields=2, int_fields=1)
        assert record.size == vm.model.object_size(ref_fields=2,
                                                   int_fields=1)

    def test_finish_runs_final_gc_and_flush(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=None,
                                profiler=SemanticProfiler())
        vm.profiler.on_allocation(1, "HashMap", "HashMap")
        vm.finish()
        assert vm.gc.cycle_count == 1
        assert vm.profiler.live_instance_count == 0


class TestContextCapture:
    def test_explicit_context_is_free(self, vm):
        before = vm.now
        context_id = vm.capture_allocation_context(
            explicit=ContextKey.synthetic("factory"))
        assert vm.now == before
        assert vm.contexts.describe(context_id).site.location == "factory"

    def test_charged_capture_advances_clock(self, vm):
        before = vm.now
        vm.capture_allocation_context(charged=True)
        assert vm.now - before >= vm.costs.stack_walk_base

    def test_uncharged_capture_is_free(self, vm):
        before = vm.now
        vm.capture_allocation_context(charged=False)
        assert vm.now == before

    def test_captured_context_points_at_caller(self, vm):
        def my_allocation_site():
            return vm.capture_allocation_context(charged=False)

        context_id = my_allocation_site()
        key = vm.contexts.describe(context_id)
        assert "my_allocation_site" in key.frames[0].location


class _StaticPolicy:
    requires_runtime_capture = False

    def __init__(self, choice):
        self.choice = choice
        self.calls = []

    def choose(self, src_type, context_id):
        self.calls.append((src_type, context_id))
        return self.choice


class _OnlinePolicy(_StaticPolicy):
    requires_runtime_capture = True


class TestPolicyDispatch:
    def test_no_policy_returns_none(self, vm):
        assert vm.choose_implementation("HashMap", 1) is None

    def test_offline_policy_lookup_is_uncharged(self, vm):
        vm.policy = _StaticPolicy(ImplementationChoice("ArrayMap"))
        before = vm.now
        choice = vm.choose_implementation("HashMap", 1)
        assert choice.impl_name == "ArrayMap"
        assert vm.now == before

    def test_online_policy_lookup_is_charged(self, vm):
        vm.policy = _OnlinePolicy(None)
        before = vm.now
        vm.choose_implementation("HashMap", 1)
        assert vm.now - before == vm.costs.policy_lookup
