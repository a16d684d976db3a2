"""Tick golden: suite output, the committed document, schema, CLI."""

import copy
import gc
import json
import pathlib

import pytest

from repro.analysis import perf
from repro.cli import main

GOLDEN = (pathlib.Path(__file__).resolve().parents[2]
          / "benchmarks" / "perf" / "BENCH_chameleon.json")


@pytest.fixture(scope="module")
def doc():
    """One suite run shared by every inspection test."""
    return perf.run_suite()


class TestGolden:
    def test_written_document_is_the_committed_one_byte_for_byte(
            self, doc, tmp_path):
        """Every count of the seven microbenchmarks, exactly: a moved
        tick fails here.  Regenerate the golden with ``repro perf`` only
        in a change that means to move simulated work."""
        path = tmp_path / "BENCH_chameleon.json"
        perf.write_document(doc, str(path))
        assert path.read_bytes() == GOLDEN.read_bytes()


class TestRunSuite:
    def test_document_is_schema_valid(self, doc):
        perf.validate_document(doc)  # must not raise

    def test_capture_on_and_off_are_measured(self, doc):
        names = [record["name"] for record in doc["benchmarks"]]
        assert names[:4] == ["tvla_capture_on", "tvla_capture_off",
                             "pmd_capture_on", "pmd_capture_off"]

    def test_records_carry_measurements(self, doc):
        for record in doc["benchmarks"]:
            assert record["ticks"] > 0
            assert record["gc_cycles"] > 0
            assert record["allocated_objects"] > 0

    def test_gc_heavy_multiplies_cycles(self, doc):
        by_name = {record["name"]: record for record in doc["benchmarks"]}
        assert by_name["gc_heavy"]["gc_cycles"] \
            > by_name["tvla_capture_off"]["gc_cycles"]
        assert by_name["gc_mark_heavy"]["workload"] == "synthetic"

    def test_gc_mark_heavy_is_deterministic_across_cores(self):
        """Pure tick counts: the microbenchmark measures the same
        simulated work on the collector and on its reference oracle."""
        from repro.verify.oracle import ReferenceMarkSweepGC

        ticks = {perf._bench_gc_mark_heavy(collector=collector).ticks
                 for collector in (None, ReferenceMarkSweepGC)}
        assert len(ticks) == 1, f"collector-dependent ticks: {ticks}"

    def test_render_summary_names_every_benchmark(self, doc):
        text = perf.render_summary(doc)
        for record in doc["benchmarks"]:
            assert record["name"] in text


class TestHostCollector:
    """The suite leaves CPython's collector as the caller set it."""

    @pytest.fixture
    def collector_off(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            yield
        finally:
            if was_enabled:
                gc.enable()

    def test_workload_repeat_keeps_it_off(self, collector_off):
        perf._bench("tvla_capture_on", perf.Chameleon(), "tvla",
                    capture=True)
        assert not gc.isenabled()

    def test_gc_mark_heavy_keeps_it_off(self, collector_off):
        perf._bench_gc_mark_heavy()
        assert not gc.isenabled()

    def test_op_dispatch_heavy_keeps_it_off(self, collector_off):
        perf._bench_op_dispatch_heavy()
        assert not gc.isenabled()


class TestOpDispatchHeavy:
    def test_record_shape(self):
        record = perf._bench_op_dispatch_heavy()
        assert record.name == "op_dispatch_heavy"
        assert record.workload == "synthetic"
        assert record.ticks > 0
        assert record.allocated_objects > 0

    def test_deterministic_across_vm_cores(self):
        """Pure tick counts: the microbenchmark measures the same
        simulated work on the op pipeline and on its reference oracle."""
        from repro.verify.oracle import ReferenceRuntimeEnvironment

        ticks = {perf._bench_op_dispatch_heavy(make_vm=make_vm).ticks
                 for make_vm in (None, ReferenceRuntimeEnvironment)}
        assert len(ticks) == 1, f"pipeline-dependent ticks: {ticks}"

    def test_included_in_the_gc_heavy_suite(self, doc):
        names = [r["name"] for r in doc["benchmarks"]]
        assert names[4:] == ["gc_heavy", "gc_mark_heavy",
                             "op_dispatch_heavy"]


class TestValidateDocument:
    def _assert_invalid(self, broken, fragment):
        with pytest.raises(ValueError, match=fragment):
            perf.validate_document(broken)

    def test_rejects_non_object(self):
        self._assert_invalid([], "JSON object")

    def test_rejects_missing_top_level_field(self, doc):
        broken = copy.deepcopy(doc)
        del broken["seed"]
        self._assert_invalid(broken, "missing top-level field 'seed'")

    def test_rejects_wrong_field_type(self, doc):
        broken = copy.deepcopy(doc)
        broken["scale"] = "0.05"
        self._assert_invalid(broken, "field 'scale' has type")

    def test_rejects_bool_masquerading_as_int(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"][0]["ticks"] = True
        self._assert_invalid(broken, "'ticks'")

    def test_rejects_duplicate_benchmark_names(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"].append(
            copy.deepcopy(broken["benchmarks"][0]))
        self._assert_invalid(broken, "duplicate benchmark name")

    def test_rejects_empty_benchmark_list(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"] = []
        self._assert_invalid(broken, "empty")

    def test_rejects_newer_schema_version(self, doc):
        broken = copy.deepcopy(doc)
        broken["schema_version"] = perf.SCHEMA_VERSION + 1
        self._assert_invalid(broken, "newer")

    def test_rejects_missing_record_field(self, doc):
        broken = copy.deepcopy(doc)
        del broken["benchmarks"][0]["gc_cycles"]
        self._assert_invalid(broken, "missing field 'gc_cycles'")


class TestPersistence:
    def test_write_load_roundtrip(self, doc, tmp_path):
        path = tmp_path / "BENCH_chameleon.json"
        perf.write_document(doc, str(path))
        assert perf.load_document(str(path)) == json.loads(
            path.read_text())

    def test_write_refuses_invalid_document(self, doc, tmp_path):
        broken = copy.deepcopy(doc)
        broken["benchmarks"] = []
        path = tmp_path / "broken.json"
        with pytest.raises(ValueError):
            perf.write_document(broken, str(path))
        assert not path.exists()

    def test_load_refuses_invalid_document(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"schema": "something-else"}))
        with pytest.raises(ValueError):
            perf.load_document(str(path))


class TestCli:
    def test_perf_writes_and_checks(self, doc, tmp_path, capsys):
        path = tmp_path / "BENCH_chameleon.json"
        assert main(["perf", "--output", str(path),
                     "--runs-root", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "tvla_capture_on" in out
        assert "indexed run" in out
        assert perf.load_document(str(path)) == doc
