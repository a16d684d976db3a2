"""Iterator objects and the shared-empty-iterator optimisation."""

import pytest

from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.iterators import (CollectionIterator,
                                         iterator_object_size, make_iterator)
from repro.collections.registry import default_registry
from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.profiler.counters import Op

LIST_IMPLS = list(default_registry().names_for_kind(CollectionKind.LIST))
SET_IMPLS = list(default_registry().names_for_kind(CollectionKind.SET))
MAP_IMPLS = list(default_registry().names_for_kind(CollectionKind.MAP))

#: Per-impl fill values honouring each implementation's type/arity
#: constraints (typed arrays, singleton, empty).
LIST_VALUES = {
    "DoubleArray": [0.5, 1.5, 2.5],
    "BoolArray": [True, False],
    "SingletonList": [7],
    "EmptyList": [],
}


class TestMakeIterator:
    def test_allocates_one_iterator_object(self, vm):
        before = vm.heap.total_allocated_objects
        iterator = make_iterator(vm, iter([1, 2]), empty=False)
        assert vm.heap.total_allocated_objects == before + 1
        assert iterator.heap_obj.type_name == "Iterator"
        assert iterator.heap_obj.size == iterator_object_size(vm)

    def test_iteration_protocol(self, vm):
        iterator = make_iterator(vm, iter("abc"), empty=False)
        assert list(iterator) == ["a", "b", "c"]
        assert iterator.returned == 3

    def test_shared_empty_skips_allocation(self, vm):
        before = vm.heap.total_allocated_objects
        iterator = make_iterator(vm, iter(()), empty=True,
                                 use_shared_empty=True)
        assert vm.heap.total_allocated_objects == before
        assert iterator.is_shared_empty
        assert list(iterator) == []

    def test_empty_without_optimisation_still_allocates(self, vm):
        """Section 5.4: some interfaces require a fresh iterator even for
        empty collections; the optimisation is opt-in."""
        before = vm.heap.total_allocated_objects
        iterator = make_iterator(vm, iter(()), empty=True,
                                 use_shared_empty=False)
        assert vm.heap.total_allocated_objects == before + 1
        assert not iterator.is_shared_empty

    def test_context_attributed(self, vm):
        iterator = make_iterator(vm, iter([1]), empty=False, context_id=9)
        assert iterator.heap_obj.context_id == 9


class TestIteratorGarbage:
    def test_iterators_die_at_gc(self, vm):
        lst = ChameleonList(vm)
        lst.pin()
        lst.add(1)
        for _ in range(10):
            list(lst.iterate())
        live_iterators = sum(1 for obj in vm.heap.objects()
                             if obj.type_name == "Iterator")
        assert live_iterators == 10
        vm.collect()
        live_iterators = sum(1 for obj in vm.heap.objects()
                             if obj.type_name == "Iterator")
        assert live_iterators == 0

    def test_iteration_pressure_drives_gc(self):
        """Massive iterator creation alone fills the young generation --
        the paper's 'massive creation of iterator objects' observation."""
        from repro.runtime.vm import RuntimeEnvironment

        vm = RuntimeEnvironment(gc_threshold_bytes=8 * 1024)
        lst = ChameleonList(vm)
        lst.pin()
        lst.add(1)
        for _ in range(2000):
            list(lst.iterate())
        assert vm.gc.cycle_count >= 4


class TestWrapperIntegration:
    def test_set_iteration_records_ops(self, profiled_vm):
        s = ChameleonSet(profiled_vm)
        list(s.iterate())          # empty
        s.add("x")
        list(s.iterate())          # nonempty
        info = s.object_info
        assert info.count(Op.ITERATE) == 2
        assert info.count(Op.ITER_EMPTY) == 1

    def test_iteration_charges_traversal(self, vm):
        lst = ChameleonList(vm)
        for i in range(50):
            lst.add(i)
        before = vm.now
        values = list(lst.iterate())
        assert values == list(range(50))
        assert vm.now - before >= 50  # at least one tick per element

    def test_shared_empty_opt_in_via_wrapper(self, vm):
        lst = ChameleonList(vm, use_shared_empty_iterator=True)
        iterator = lst.iterate()
        assert iterator.is_shared_empty
        lst.add(1)
        assert not lst.iterate().is_shared_empty


class TestUniformSemanticsAcrossImpls:
    """The differential fuzzer normalises iteration assuming every
    registered implementation honours the same contract: empty iteration
    through the shared-empty optimisation allocates nothing, and mutation
    during iteration never disturbs an open iterator (snapshot-at-start).
    Pin both, per implementation, so a new backing cannot silently break
    the replay normalisation."""

    @pytest.mark.parametrize("impl", LIST_IMPLS)
    def test_shared_empty_list_iteration(self, vm, impl):
        lst = ChameleonList(vm, impl=impl, use_shared_empty_iterator=True)
        before = vm.heap.total_allocated_objects
        iterator = lst.iterate()
        assert iterator.is_shared_empty
        assert iterator.heap_obj is None
        assert vm.heap.total_allocated_objects == before
        assert list(iterator) == []

    @pytest.mark.parametrize("impl", SET_IMPLS)
    def test_shared_empty_set_iteration(self, vm, impl):
        s = ChameleonSet(vm, impl=impl, use_shared_empty_iterator=True)
        before = vm.heap.total_allocated_objects
        iterator = s.iterate()
        assert iterator.is_shared_empty
        assert vm.heap.total_allocated_objects == before
        assert list(iterator) == []

    @pytest.mark.parametrize("impl", MAP_IMPLS)
    def test_shared_empty_map_iteration(self, vm, impl):
        mapping = ChameleonMap(vm, impl=impl,
                               use_shared_empty_iterator=True)
        before = vm.heap.total_allocated_objects
        for iterator in (mapping.iterate(), mapping.iterate_keys(),
                         mapping.iterate_items()):
            assert iterator.is_shared_empty
            assert list(iterator) == []
        assert vm.heap.total_allocated_objects == before

    @pytest.mark.parametrize("impl", LIST_IMPLS)
    def test_list_mutation_during_iteration_yields_snapshot(self, vm,
                                                            impl):
        values = LIST_VALUES.get(impl, [1, 2, 3])
        lst = ChameleonList(vm, impl=impl)
        for value in values:
            lst.add(value)
        iterator = lst.iterate()
        got = [next(iterator)] if values else []
        try:
            lst.clear()  # the mutation racing the open iterator
        except UnsupportedOperation:
            pytest.skip(f"{impl} is immutable; nothing can race")
        got.extend(iterator)
        assert got == values
        assert lst.size() == 0

    @pytest.mark.parametrize("impl", SET_IMPLS)
    def test_set_mutation_during_iteration_yields_snapshot(self, vm, impl):
        s = ChameleonSet(vm, impl=impl)
        for value in (1, 2, 3):
            s.add(value)
        iterator = s.iterate()
        got = [next(iterator)]
        s.clear()
        got.extend(iterator)
        assert sorted(got) == [1, 2, 3]  # order is impl-defined
        assert s.size() == 0

    @pytest.mark.parametrize("impl", MAP_IMPLS)
    def test_map_mutation_during_iteration_yields_snapshot(self, vm, impl):
        mapping = ChameleonMap(vm, impl=impl)
        for k in (1, 2, 3):
            mapping.put(k, k * 10)
        iterator = mapping.iterate_items()
        got = [next(iterator)]
        mapping.clear()
        got.extend(iterator)
        assert sorted(got) == [(1, 10), (2, 20), (3, 30)]
        assert mapping.size() == 0


def _compiled_matrix_cases():
    """(workload, impl) pairs: the per-impl matrix over the source
    traces of two library scenarios instead of hand-written fills."""
    from repro.verify.trace import eligible_impls
    from repro.workloads.compiled import make_scenario

    cases = []
    for name in ("compiled-tvla-map", "compiled-pmd-set"):
        trace = make_scenario(name).source_traces()[0]
        for impl in eligible_impls(trace):
            cases.append(pytest.param(name, impl, id=f"{name}-{impl}"))
    return cases


class TestUniformSemanticsViaCompiledWorkloads:
    """The same uniform-contract matrix, driven by compiled workloads.

    Hand-written fills above choose their own values; here the op mix
    comes from recorded benchmark traces (including live iterators racing
    mutations), executed through the compiled path against every
    eligible implementation.  Outcome- and drop-out-parity with the
    interpretive ``reference_replay`` per implementation is exactly the
    interchangeability contract, proven beyond the baseline
    implementation and beyond hand-picked operations.
    """

    @pytest.mark.parametrize("workload,impl", _compiled_matrix_cases())
    def test_compiled_matches_replay_per_impl(self, workload, impl):
        from repro.verify.oracle import reference_replay
        from repro.verify.trace import replay_trace
        from repro.workloads.compiled import make_scenario

        trace = make_scenario(workload).source_traces()[0]
        reference = reference_replay(trace, impl)
        result = replay_trace(trace, impl, sanitize=True)
        assert result.violations == []
        assert result.outcomes == reference.outcomes
        assert result.dropped_at == reference.dropped_at
        assert result.ticks == reference.ticks

    @pytest.mark.parametrize("workload", ["compiled-tvla-map",
                                          "compiled-pmd-set"])
    def test_source_trace_diffs_clean_across_registry(self, workload):
        from repro.verify.trace import diff_trace
        from repro.workloads.compiled import make_scenario

        trace = make_scenario(workload).source_traces()[0]
        report = diff_trace(trace, sanitize=True)
        assert report.ok, report.summary()
