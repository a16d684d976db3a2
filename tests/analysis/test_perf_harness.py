"""Wall-clock perf harness: suite output, schema validation, CLI."""

import copy
import gc
import json

import pytest

from repro.analysis import perf
from repro.cli import main


@pytest.fixture(scope="module")
def doc():
    """One tiny suite run shared by every inspection test."""
    return perf.run_suite(scale=0.05, repeats=1, workloads=("tvla",),
                          include_gc_heavy=False)


class TestMedianIndex:
    def test_single_repeat(self):
        assert perf.median_index([4.2]) == 0

    def test_odd_count_picks_the_middle(self):
        assert perf.median_index([3.0, 1.0, 2.0]) == 2

    def test_even_count_picks_the_lower_middle(self):
        # Lower middle, so the reported wall and phases always come from
        # one actual run rather than an average of two.
        assert perf.median_index([4.0, 1.0, 3.0, 2.0]) == 3

    def test_index_refers_to_the_unsorted_input(self):
        walls = [0.9, 0.1, 0.5, 0.7, 0.3]
        assert walls[perf.median_index(walls)] == 0.5


class TestRunSuite:
    def test_document_is_schema_valid(self, doc):
        perf.validate_document(doc)  # must not raise

    def test_capture_on_and_off_are_measured(self, doc):
        names = [record["name"] for record in doc["benchmarks"]]
        assert names == ["tvla_capture_on", "tvla_capture_off"]

    def test_records_carry_measurements(self, doc):
        for record in doc["benchmarks"]:
            assert record["wall_seconds"] > 0
            assert record["ticks"] > 0
            assert record["allocated_objects"] > 0
            assert set(perf.PHASES) <= set(record["phases"])
            assert record["wall_seconds"] == pytest.approx(
                sum(record["phases"].values()))

    def test_capture_off_skips_the_report_phase(self, doc):
        by_name = {record["name"]: record for record in doc["benchmarks"]}
        assert by_name["tvla_capture_off"]["phases"]["report"] == 0.0
        assert by_name["tvla_capture_on"]["phases"]["report"] > 0.0

    def test_gc_heavy_multiplies_cycles(self):
        stressed = perf.run_suite(scale=0.05, repeats=1,
                                  workloads=("tvla",),
                                  include_gc_heavy=True)
        by_name = {record["name"]: record
                   for record in stressed["benchmarks"]}
        assert by_name["gc_heavy"]["gc_cycles"] \
            > by_name["tvla_capture_off"]["gc_cycles"]
        mark_heavy = by_name["gc_mark_heavy"]
        assert mark_heavy["workload"] == "synthetic"
        assert mark_heavy["ticks"] > 0
        assert mark_heavy["wall_seconds"] > 0

    def test_gc_mark_heavy_is_deterministic_across_cores(self):
        """Pure tick counts: the microbenchmark measures the same
        simulated work on the collector and on its reference oracle."""
        from repro.verify.oracle import ReferenceMarkSweepGC

        ticks = {perf._bench_gc_mark_heavy(scale=0.05, seed=2009,
                                           repeats=1,
                                           collector=collector).ticks
                 for collector in (None, ReferenceMarkSweepGC)}
        assert len(ticks) == 1, f"collector-dependent ticks: {ticks}"

    def test_render_summary_names_every_benchmark(self, doc):
        text = perf.render_summary(doc)
        for record in doc["benchmarks"]:
            assert record["name"] in text


class TestMedianOfRepeats:
    """Schema v4: every record carries its per-repeat walls and reports
    the median run (satellite: gate comparisons stop being
    single-sample)."""

    def test_records_carry_repeat_walls(self, doc):
        for record in doc["benchmarks"]:
            assert len(record["repeat_walls"]) == record["repeats"]
            assert record["wall_seconds"] in record["repeat_walls"]

    def test_reported_wall_is_the_median_repeat(self):
        multi = perf.run_suite(scale=0.05, repeats=3,
                               workloads=("tvla",),
                               include_gc_heavy=False)
        for record in multi["benchmarks"]:
            walls = record["repeat_walls"]
            assert len(walls) == 3
            assert record["wall_seconds"] \
                == walls[perf.median_index(walls)]


class TestHostCollector:
    """Each timed repeat pauses CPython's collector through the drivers'
    helper, so a caller that has it off still has it off afterwards."""

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
        perf._run_once(perf.Chameleon(), "tvla", 0.02, 2009, capture=True)
        assert not gc.isenabled()

    def test_gc_mark_heavy_keeps_it_off(self, collector_off):
        perf._bench_gc_mark_heavy(scale=0.02, seed=2009, repeats=1)
        assert not gc.isenabled()

    def test_op_dispatch_heavy_keeps_it_off(self, collector_off):
        perf._bench_op_dispatch_heavy(scale=0.01, repeats=1)
        assert not gc.isenabled()

    def test_every_phase_runs_with_it_paused(self, monkeypatch):
        seen = []
        timed = perf._phase_timed

        def observing(fn, phases, name):
            seen.append((name, gc.isenabled()))
            timed(fn, phases, name)

        monkeypatch.setattr(perf, "_phase_timed", observing)
        perf._run_once(perf.Chameleon(), "tvla", 0.02, 2009, capture=True)
        assert seen == [(name, False) for name in perf.PHASES]


class TestOpDispatchHeavy:
    def test_record_shape(self):
        record = perf._bench_op_dispatch_heavy(scale=0.02, repeats=1)
        assert record.name == "op_dispatch_heavy"
        assert record.workload == "synthetic"
        assert record.ticks > 0
        assert record.wall_seconds > 0
        assert record.allocated_objects > 0

    def test_deterministic_across_vm_cores(self):
        """Pure tick counts: the microbenchmark measures the same
        simulated work on the op pipeline and on its reference oracle."""
        from repro.verify.oracle import ReferenceRuntimeEnvironment

        ticks = {perf._bench_op_dispatch_heavy(scale=0.02, repeats=1,
                                               make_vm=make_vm).ticks
                 for make_vm in (None, ReferenceRuntimeEnvironment)}
        assert len(ticks) == 1, f"pipeline-dependent ticks: {ticks}"

    def test_included_in_the_gc_heavy_suite(self):
        stressed = perf.run_suite(scale=0.05, repeats=1,
                                  workloads=("tvla",),
                                  include_gc_heavy=True)
        names = [r["name"] for r in stressed["benchmarks"]]
        assert "op_dispatch_heavy" in names


class TestVmCoresValidation:
    """The harness no longer writes the ``vm_cores`` section, but older
    schema-v4 documents carry it and must still load and validate."""

    def _doc_with_section(self, doc, **overrides):
        extended = copy.deepcopy(doc)
        extended["vm_cores"] = {
            "scale": 0.02, "seed": 2009, "repeats": 1, "cpu_count": 4,
            "benchmarks": {
                "pmd_capture_on": {
                    "reference_wall": 1.0, "fast_wall": 0.5,
                    "speedup": 2.0, "ticks": 1000,
                    "ticks_identical": True,
                },
            },
        }
        extended["vm_cores"].update(overrides)
        return extended

    def test_well_formed_section_is_valid(self, doc):
        perf.validate_document(self._doc_with_section(doc))

    def test_v3_document_without_section_stays_valid(self, doc):
        v3 = copy.deepcopy(doc)
        v3.pop("vm_cores", None)
        v3["schema_version"] = 3
        perf.validate_document(v3)

    def test_rejects_non_object_section(self, doc):
        broken = copy.deepcopy(doc)
        broken["vm_cores"] = [1, 2]
        with pytest.raises(ValueError, match="vm_cores section is not"):
            perf.validate_document(broken)

    def test_rejects_missing_section_field(self, doc):
        broken = self._doc_with_section(doc)
        del broken["vm_cores"]["cpu_count"]
        with pytest.raises(ValueError, match="vm_cores: missing field"):
            perf.validate_document(broken)

    def test_rejects_wrong_section_field_type(self, doc):
        broken = self._doc_with_section(doc, cpu_count="four")
        with pytest.raises(ValueError,
                           match="vm_cores: field 'cpu_count'"):
            perf.validate_document(broken)

    def test_rejects_missing_benchmark_field(self, doc):
        broken = self._doc_with_section(doc)
        del broken["vm_cores"]["benchmarks"]["pmd_capture_on"]["speedup"]
        with pytest.raises(ValueError,
                           match="vm_cores benchmark 'pmd_capture_on'"):
            perf.validate_document(broken)

    def test_rejects_non_object_benchmark(self, doc):
        broken = self._doc_with_section(doc)
        broken["vm_cores"]["benchmarks"]["pmd_capture_on"] = 7
        with pytest.raises(ValueError, match="is not *an object"):
            perf.validate_document(broken)

    def test_rejects_invalid_repeat_walls(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"][0]["repeat_walls"] = [-0.1]
        with pytest.raises(ValueError, match="repeat_walls"):
            perf.validate_document(broken)

    def test_rejects_non_list_repeat_walls(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"][0]["repeat_walls"] = 0.5
        with pytest.raises(ValueError, match="repeat_walls"):
            perf.validate_document(broken)

    def test_pre_v4_record_without_repeat_walls_stays_valid(self, doc):
        older = copy.deepcopy(doc)
        for record in older["benchmarks"]:
            record.pop("repeat_walls", None)
        older["schema_version"] = 3
        older.pop("vm_cores", None)
        perf.validate_document(older)


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

    def test_rejects_negative_wall_seconds(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"][0]["wall_seconds"] = -0.5
        self._assert_invalid(broken, "negative wall_seconds")

    def test_rejects_negative_phase(self, doc):
        broken = copy.deepcopy(doc)
        broken["benchmarks"][0]["phases"]["run"] = -1.0
        self._assert_invalid(broken, "phase 'run'")

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


class TestSuiteSection:
    """The schema-v2 ``suite`` section: serial-vs-parallel trajectory."""

    @pytest.fixture(scope="class")
    def suite(self):
        return perf.run_suite_section(scale=0.05, resolution=32768, jobs=2)

    def test_measures_both_paths(self, suite):
        assert suite["serial_seconds"] > 0
        assert suite["parallel_seconds"] > 0
        assert suite["speedup"] > 0
        assert suite["jobs"] == 2

    def test_results_are_identical(self, suite):
        """The determinism contract, asserted on every perf run."""
        assert suite["identical"] is True

    def test_serial_pass_exercises_the_session_cache(self, suite):
        # Fig. 7 re-profiles nothing Fig. 6 already profiled.
        assert suite["cache_hits"] >= 6
        assert suite["cache_misses"] >= 6

    def test_valid_inside_a_document(self, doc, suite):
        extended = copy.deepcopy(doc)
        extended["suite"] = suite
        perf.validate_document(extended)  # must not raise
        assert "suite (fig6+fig7" in perf.render_summary(extended)

    def test_overhead_breakdown_is_recorded(self, suite):
        """Schema v3: the parallel pass reports where non-worker wall
        time went (spawn / transfer / merge)."""
        overhead = suite["overhead"]
        assert overhead["jobs_executed"] > 0
        assert overhead["spawn_seconds"] > 0.0
        assert overhead["worker_seconds"] > 0.0
        assert overhead["transfer_seconds"] >= 0.0
        assert 0.0 <= overhead["queue_wait_seconds"] \
            <= overhead["transfer_seconds"]
        assert overhead["merge_seconds"] >= 0.0

    def test_overhead_renders_in_the_summary(self, doc, suite):
        extended = copy.deepcopy(doc)
        extended["suite"] = suite
        summary = perf.render_summary(extended)
        assert "pool overhead" in summary
        assert "queue wait" in summary


class TestSuiteSectionValidation:
    def _doc_with_suite(self, doc, **overrides):
        extended = copy.deepcopy(doc)
        extended["suite"] = {
            "scale": 0.05, "resolution": 32768, "jobs": 2,
            "serial_seconds": 1.0, "parallel_seconds": 0.5,
            "speedup": 2.0, "cache_hits": 6, "cache_misses": 6,
            "identical": True,
        }
        extended["suite"].update(overrides)
        return extended

    def test_well_formed_suite_is_valid(self, doc):
        perf.validate_document(self._doc_with_suite(doc))

    def test_v1_document_without_suite_stays_valid(self, doc):
        """Backward compat: pre-suite (v1) documents still validate."""
        v1 = copy.deepcopy(doc)
        v1.pop("suite", None)
        v1["schema_version"] = 1
        perf.validate_document(v1)

    def test_rejects_non_object_suite(self, doc):
        broken = copy.deepcopy(doc)
        broken["suite"] = [1, 2]
        with pytest.raises(ValueError, match="suite section is not"):
            perf.validate_document(broken)

    def test_rejects_missing_suite_field(self, doc):
        broken = self._doc_with_suite(doc)
        del broken["suite"]["speedup"]
        with pytest.raises(ValueError, match="suite: missing field"):
            perf.validate_document(broken)

    def test_rejects_wrong_suite_field_type(self, doc):
        broken = self._doc_with_suite(doc, jobs="two")
        with pytest.raises(ValueError, match="suite: field 'jobs'"):
            perf.validate_document(broken)

    def test_rejects_bool_suite_counter(self, doc):
        broken = self._doc_with_suite(doc, cache_hits=True)
        with pytest.raises(ValueError, match="suite: field 'cache_hits'"):
            perf.validate_document(broken)

    def _overhead(self, **overrides):
        overhead = {"jobs_executed": 24, "spawn_seconds": 0.02,
                    "worker_seconds": 5.0, "transfer_seconds": 0.3,
                    "merge_seconds": 0.01}
        overhead.update(overrides)
        return overhead

    def test_v2_suite_without_overhead_stays_valid(self, doc):
        """Backward compat: the overhead breakdown is v3-optional."""
        perf.validate_document(self._doc_with_suite(doc))

    def test_well_formed_overhead_is_valid(self, doc):
        perf.validate_document(
            self._doc_with_suite(doc, overhead=self._overhead()))

    def test_overhead_with_queue_wait_is_valid(self, doc):
        doc = self._doc_with_suite(
            doc, overhead=self._overhead(queue_wait_seconds=0.2))
        perf.validate_document(doc)
        assert "(queue wait 0.200s)" in perf.render_summary(doc)

    def test_overhead_without_queue_wait_renders_without_it(self, doc):
        doc = self._doc_with_suite(doc, overhead=self._overhead())
        assert "queue wait" not in perf.render_summary(doc)

    def test_rejects_negative_queue_wait(self, doc):
        broken = self._doc_with_suite(
            doc, overhead=self._overhead(queue_wait_seconds=-0.1))
        with pytest.raises(ValueError, match="'queue_wait_seconds' is "
                                             "negative"):
            perf.validate_document(broken)

    def test_rejects_non_object_overhead(self, doc):
        broken = self._doc_with_suite(doc, overhead=[1])
        with pytest.raises(ValueError, match="suite.overhead is not"):
            perf.validate_document(broken)

    def test_rejects_missing_overhead_field(self, doc):
        overhead = self._overhead()
        del overhead["transfer_seconds"]
        broken = self._doc_with_suite(doc, overhead=overhead)
        with pytest.raises(ValueError,
                           match="suite.overhead: missing field"):
            perf.validate_document(broken)

    def test_rejects_negative_overhead_field(self, doc):
        broken = self._doc_with_suite(
            doc, overhead=self._overhead(spawn_seconds=-0.1))
        with pytest.raises(ValueError, match="'spawn_seconds' is "
                                             "negative"):
            perf.validate_document(broken)

    def test_rejects_bool_overhead_counter(self, doc):
        broken = self._doc_with_suite(
            doc, overhead=self._overhead(jobs_executed=True))
        with pytest.raises(ValueError,
                           match="suite.overhead: field 'jobs_executed'"):
            perf.validate_document(broken)


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
    def test_perf_writes_and_checks(self, tmp_path, capsys):
        path = tmp_path / "BENCH_chameleon.json"
        assert main(["perf", "--scale", "0.05", "--repeats", "1",
                     "--no-gc-heavy", "--output", str(path),
                     "--runs-root", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "tvla_capture_on" in out
        assert "indexed run" in out
        assert path.exists()
        assert main(["perf", "--check", str(path)]) == 0
        assert "valid" in capsys.readouterr().out

    def test_perf_check_fails_on_invalid_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{}")
        with pytest.raises(SystemExit) as excinfo:
            main(["perf", "--check", str(path)])
        assert "invalid BENCH document" in str(excinfo.value)

    def test_perf_check_fails_on_missing_file(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["perf", "--check", str(tmp_path / "absent.json")])

    def test_perf_suite_flag_records_the_section(self, tmp_path, capsys):
        path = tmp_path / "BENCH_chameleon.json"
        assert main(["perf", "--scale", "0.05", "--repeats", "1",
                     "--no-gc-heavy", "--output", str(path),
                     "--suite", "--jobs", "2", "--suite-scale", "0.05",
                     "--suite-resolution", "32768",
                     "--runs-root", str(tmp_path / "runs")]) == 0
        out = capsys.readouterr().out
        assert "suite (fig6+fig7" in out
        written = json.loads(path.read_text())
        assert written["schema_version"] == perf.SCHEMA_VERSION
        assert written["suite"]["jobs"] == 2
        assert written["suite"]["identical"] is True

    def test_perf_suite_refuses_a_single_job(self, tmp_path):
        """A one-worker suite section would compare serial against
        serial, so the CLI refuses it instead of silently dropping it."""
        path = tmp_path / "BENCH_chameleon.json"
        with pytest.raises(SystemExit, match="--jobs"):
            main(["perf", "--scale", "0.02", "--repeats", "1",
                  "--no-gc-heavy", "--suite", "--jobs", "1",
                  "--no-index", "--output", str(path)])
        assert not path.exists()
