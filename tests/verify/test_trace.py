"""Trace document, value codec, recorder and differ."""

import pytest

from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.registry import default_registry
from repro.collections.wrappers import ChameleonList, ChameleonMap
from repro.verify.trace import (BASELINE_IMPLS, TRACE_FORMAT_VERSION,
                                HandleTable, Trace, TraceRecorder,
                                decode_value, diff_trace, eligible_impls,
                                encode_value, max_handle, replay_trace)


def _round_trip(value, handles=None):
    handles = handles if handles is not None else HandleTable()
    return decode_value(encode_value(value, handles), handles)


class TestValueCodec:
    @pytest.mark.parametrize("value", [None, 0, -7, 41, "", "k3", True,
                                       False, 0.5, -19.5, 1e300])
    def test_scalars_round_trip(self, value):
        decoded = _round_trip(value)
        assert decoded == value
        assert type(decoded) is type(value)

    def test_bool_is_not_collapsed_into_int(self):
        """bool is an int subclass; the codec must keep the tags apart or
        IntArray/BoolArray acceptance would diverge between record and
        replay."""
        handles = HandleTable()
        assert encode_value(True, handles) == ["b", True]
        assert encode_value(1, handles) == ["i", 1]

    def test_float_uses_exact_repr(self):
        handles = HandleTable()
        tag, text = encode_value(0.1, handles)
        assert tag == "f"
        assert isinstance(text, str)
        assert decode_value(["f", text], handles) == 0.1

    def test_heap_objects_keep_identity_through_handles(self, vm):
        handles = HandleTable()
        first = vm.allocate_data("Elem", int_fields=1)
        second = vm.allocate_data("Elem", int_fields=1)
        enc_first = encode_value(first, handles)
        enc_second = encode_value(second, handles)
        assert enc_first == ["o", 0]
        assert enc_second == ["o", 1]
        # Same object again: same handle, and decode resolves back to it.
        assert encode_value(first, handles) == enc_first
        assert decode_value(enc_first, handles) is first

    def test_pairs_and_lists_nest(self, vm):
        handles = HandleTable()
        obj = vm.allocate_data("Elem", int_fields=1)
        value = [("k", 1), ("j", obj)]
        assert _round_trip(value, handles) == [("k", 1), ("j", obj)]

    def test_opaque_fallback_token(self):
        handles = HandleTable()
        enc = encode_value({1, 2}, handles)
        assert enc[0] == "x"
        assert decode_value(enc, handles) == enc[1]  # replayed as token

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_value(["z", 1], HandleTable())

    def test_max_handle_scans_nested_ops(self):
        ops = [["add", ["o", 2]], ["add_all", [["o", 5], ["i", 9]]]]
        assert max_handle(ops) == 5
        assert max_handle([["size"]]) == -1


class TestTraceDocument:
    def _sample(self):
        trace = Trace(kind=CollectionKind.LIST, src_type="ArrayList",
                      baseline_impl="ArrayList", context="test/sample")
        trace.ops = [["add", ["i", 1]], ["size"]]
        trace.results = [["ok", ["n"]], ["ok", ["i", 1]]]
        trace.meta = {"origin": "unit-test"}
        return trace

    def test_json_round_trip(self):
        trace = self._sample()
        restored = Trace.from_json(trace.to_json(indent=2))
        assert restored.kind is trace.kind
        assert restored.src_type == trace.src_type
        assert restored.baseline_impl == trace.baseline_impl
        assert restored.context == trace.context
        assert restored.ops == trace.ops
        assert restored.results == trace.results
        assert restored.meta == trace.meta

    def test_newer_format_rejected(self):
        data = self._sample().to_dict()
        data["format"] = TRACE_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            Trace.from_dict(data)

    def test_with_ops_drops_stale_results(self):
        trace = self._sample()
        pruned = trace.with_ops([["size"]])
        assert pruned.ops == [["size"]]
        assert pruned.results == []
        assert pruned.meta == trace.meta
        assert len(trace.ops) == 2  # original untouched


class TestRecorder:
    def test_records_ops_and_outcomes(self, vm):
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm).pin()
        lst.add(1)
        lst.add(2)
        assert lst.get(0) == 1
        assert list(lst.iterate()) == [1, 2]
        with pytest.raises(IndexError):
            lst.get(99)

        assert len(recorder.traces) == 1
        trace = recorder.traces[0]
        names = [op[0] for op in trace.ops]
        assert names == ["add", "add", "get", "iter_new",
                         "iter_next", "iter_next", "iter_next", "get"]
        assert trace.results[2] == ["ok", ["i", 1]]
        assert trace.results[6] == ["stop"]       # exhaustion recorded
        assert trace.results[7] == ["raise", "IndexError"]

    def test_bulk_sources_recorded_by_effect(self, vm):
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm).pin()
        lst.add_all(iter([3, 4]))  # one-shot iterable
        trace = recorder.traces[0]
        assert trace.ops[0] == ["add_all", [["i", 3], ["i", 4]]]
        assert lst.snapshot() == [3, 4]  # the op itself still happened

    def test_replay_reproduces_recorded_outcomes(self, vm):
        recorder = TraceRecorder().install(vm)
        mapping = ChameleonMap(vm).pin()
        mapping.put("a", 1)
        mapping.put("a", 2)
        assert mapping.get("a") == 2
        mapping.remove_key("a")
        assert mapping.is_empty()
        trace = recorder.traces[0]

        result = replay_trace(trace, trace.baseline_impl)
        assert result.dropped_at is None
        assert result.outcomes == trace.results
        assert not result.violations

    def test_max_ops_truncates(self, vm):
        recorder = TraceRecorder(max_ops_per_trace=2).install(vm)
        lst = ChameleonList(vm).pin()
        for i in range(5):
            lst.add(i)
        trace = recorder.traces[0]
        assert len(trace.ops) == 2
        assert trace.meta.get("truncated") is True

    def test_src_type_filter(self, vm):
        recorder = TraceRecorder(src_types={"HashMap"}).install(vm)
        ChameleonList(vm).pin()
        ChameleonMap(vm, src_type="HashMap").pin()
        assert [t.kind for t in recorder.traces] == [CollectionKind.MAP]

    def test_max_traces_cap(self, vm):
        recorder = TraceRecorder(max_traces=1).install(vm)
        ChameleonList(vm).pin()
        ChameleonList(vm).pin()
        assert len(recorder.traces) == 1


class TestEligibleImpls:
    def _list_trace(self, ops):
        trace = Trace(kind=CollectionKind.LIST, src_type="ArrayList",
                      baseline_impl="ArrayList")
        trace.ops = ops
        return trace

    def test_duplicate_adds_exclude_dedup_backed_list(self):
        names = eligible_impls(self._list_trace(
            [["add", ["i", 1]], ["add", ["i", 1]]]))
        assert "LinkedHashSet" not in names
        assert "DoubleArray" not in names  # ints stored
        assert "ArrayList" in names and "LinkedList" in names

    def test_distinct_floats_keep_double_array(self):
        names = eligible_impls(self._list_trace(
            [["add", ["f", "0.5"]], ["add", ["f", "1.5"]]]))
        assert "DoubleArray" in names
        assert "LinkedHashSet" in names

    def test_non_list_kinds_take_full_registry(self):
        for kind in (CollectionKind.SET, CollectionKind.MAP):
            trace = Trace(kind=kind, src_type="x",
                          baseline_impl=BASELINE_IMPLS[kind])
            trace.ops = [["add", ["i", 1]], ["add", ["i", 1]]] \
                if kind is CollectionKind.SET else [["size"]]
            assert eligible_impls(trace) \
                == list(default_registry().names_for_kind(kind))


class TestDiffTrace:
    def test_recorded_trace_diffs_clean_across_registry(self, vm):
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm).pin()
        lst.add_all([1, 2, 3])
        lst.add_at(1, 9)
        lst.remove_value(2)
        assert lst.index_of(9) == 1
        list(lst.iterate())
        report = diff_trace(recorder.traces[0])
        assert report.ok, report.summary()
        assert report.failure_signature() is None

    def test_unsupported_impl_drops_out_without_divergence(self, vm):
        """SingletonList cannot hold two elements; it must register as a
        drop-out, never as a divergence."""
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm).pin()
        lst.add(1)
        lst.add(2)
        report = diff_trace(recorder.traces[0])
        assert report.ok, report.summary()
        assert report.results["SingletonList"].dropped_at == 1

    def test_planted_divergence_is_detected_and_attributed(self, vm,
                                                           monkeypatch):
        from repro.collections.lists import LinkedListImpl
        monkeypatch.setattr(LinkedListImpl, "contains",
                            lambda self, value: False)
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm).pin()
        lst.add(5)
        lst.contains(5)
        report = diff_trace(recorder.traces[0])
        assert not report.ok
        assert report.failure_signature() == ("LinkedList", "contains")

    def test_swap_that_loses_an_element_is_reported(self):
        """A swap must carry the collection's contents over unchanged;
        an implementation that drops an element while being loaded by a
        swap is reported even though every replay agrees step by step."""
        from repro.collections.lists import ArrayListImpl
        from repro.collections.registry import ImplementationRegistry

        class LossyList(ArrayListImpl):
            IMPL_NAME = "LossyList"

            def adopt(self):
                if self.size:  # non-empty only when loaded by a swap
                    self.remove_at(self.size - 1)
                return super().adopt()

        registry = ImplementationRegistry()
        registry.register("ArrayList", ArrayListImpl, [CollectionKind.LIST])
        registry.register("LossyList", LossyList, [CollectionKind.LIST])
        registry.register_source_type("ArrayList", CollectionKind.LIST,
                                      "ArrayList")
        trace = Trace(kind=CollectionKind.LIST, src_type="ArrayList",
                      baseline_impl="ArrayList", context="test/lossy",
                      ops=[["add", ["i", 1]], ["add", ["i", 2]],
                           ["swap", "LossyList", {}], ["size"]])
        report = diff_trace(trace, registry=registry)
        assert not report.ok
        swap_divergences = [
            d for d in report.divergences
            if d.note == "collection contents changed across swap"]
        assert swap_divergences, report.summary()
        assert all(d.step == 2 for d in swap_divergences)
        assert len(swap_divergences[0].expected) == 2
        assert len(swap_divergences[0].actual) == 1

    def test_unsupported_operation_propagates_to_caller(self, vm):
        """The recorder re-raises after noting the drop-out, so recording
        does not change what the program observes."""
        recorder = TraceRecorder().install(vm)
        lst = ChameleonList(vm, impl="EmptyList").pin()
        with pytest.raises(UnsupportedOperation):
            lst.add(1)
        assert recorder.traces[0].results[-1] == ["unsup"]
