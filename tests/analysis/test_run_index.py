"""Cross-run experiment index: manifests, runs.sqlite, history, store."""

import json
import os
import shutil

import pytest

from repro.analysis import index as run_index
from repro.analysis.index import RunDirectory, RunIndex, SessionStore
from repro.cli import main


def make_manifest(run_id, started_at=1000.0, **overrides):
    """A minimal valid manifest for direct index tests."""
    manifest = {
        "schema": run_index.MANIFEST_SCHEMA,
        "schema_version": run_index.MANIFEST_SCHEMA_VERSION,
        "run_id": run_id,
        "kind": "perf",
        "started_at": started_at,
        "wall_seconds": 1.0,
        "python": "3.11.0",
        "pythonhashseed": "2009",
        "git_rev": None,
        "config_fingerprint": "fp",
        "command": ["perf"],
        "params": {},
        "artifacts": [],
        "results": {},
    }
    manifest.update(overrides)
    return manifest


def make_record(name="bench", wall=1.0, ticks=100, **overrides):
    record = {"name": name, "workload": "tvla", "capture": True,
              "wall_seconds": wall, "phases": {"run": wall * 0.5},
              "ticks": ticks, "gc_cycles": 2, "allocated_objects": 10}
    record.update(overrides)
    return record


class TestManifestValidation:
    def test_valid_manifest_passes(self):
        run_index.validate_manifest(make_manifest("r1"))

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            run_index.validate_manifest([])

    def test_rejects_missing_field(self):
        manifest = make_manifest("r1")
        del manifest["config_fingerprint"]
        with pytest.raises(ValueError, match="config_fingerprint"):
            run_index.validate_manifest(manifest)

    def test_rejects_wrong_field_type(self):
        manifest = make_manifest("r1", params=[1, 2])
        with pytest.raises(ValueError, match="'params' has type"):
            run_index.validate_manifest(manifest)

    def test_rejects_missing_git_rev(self):
        manifest = make_manifest("r1")
        del manifest["git_rev"]
        with pytest.raises(ValueError, match="git_rev"):
            run_index.validate_manifest(manifest)

    def test_rejects_newer_schema_version(self):
        manifest = make_manifest(
            "r1",
            schema_version=run_index.MANIFEST_SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="newer"):
            run_index.validate_manifest(manifest)


class TestRunDirectory:
    def test_create_finalize_roundtrip(self, tmp_path):
        run = RunDirectory.create(
            str(tmp_path), "perf", command=["perf", "--scale", "0.05"],
            params={"scale": 0.05}, config_fingerprint="fp")
        run.add_artifact("summary.txt", "hello\n")
        path = run.finalize(results={"n": 1}, wall_seconds=2.5)
        assert os.path.exists(path)
        manifest = RunDirectory.open(str(tmp_path), run.run_id).manifest
        assert manifest["kind"] == "perf"
        assert manifest["wall_seconds"] == 2.5
        assert manifest["results"] == {"n": 1}
        assert manifest["artifacts"] == ["summary.txt"]
        assert manifest["pythonhashseed"] == \
            run_index.interpreter_hashseed()
        with open(run.artifact_path("summary.txt")) as handle:
            assert handle.read() == "hello\n"

    def test_run_id_embeds_the_kind(self, tmp_path):
        run = RunDirectory.create(str(tmp_path), "experiment")
        assert "-experiment-" in run.run_id

    def test_no_manifest_until_finalize(self, tmp_path):
        """A crashed run leaves artifacts but no manifest, so indexing
        never sees half-finished invocations."""
        run = RunDirectory.create(str(tmp_path), "perf")
        run.add_artifact("partial.txt", "…")
        assert not os.path.exists(run.manifest_path())

    def test_finalize_measures_wall_clock_when_not_given(self, tmp_path):
        run = RunDirectory.create(str(tmp_path), "perf")
        run.finalize(results={})
        assert run.manifest["wall_seconds"] >= 0.0


class TestAtomicWriteText:
    def test_writes_and_replaces(self, tmp_path):
        path = tmp_path / "out.txt"
        run_index.atomic_write_text(str(path), "one")
        run_index.atomic_write_text(str(path), "two")
        assert path.read_text() == "two"
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    def test_failed_write_leaves_original_and_no_temp(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "out.txt"
        run_index.atomic_write_text(str(path), "original")

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(run_index.os, "replace", boom)
        with pytest.raises(OSError):
            run_index.atomic_write_text(str(path), "clobbered")
        monkeypatch.undo()
        assert path.read_text() == "original"
        assert list(tmp_path.iterdir()) == [path]


class TestRunIndex:
    def test_record_run_is_an_upsert(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1", wall_seconds=1.0))
            index.record_run(make_manifest("r1", wall_seconds=9.0))
            rows = index.runs()
            assert len(rows) == 1
            assert rows[0]["wall_seconds"] == 9.0

    def test_record_benchmark_is_an_upsert(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark("r1", make_record(wall=1.0))
            index.record_benchmark("r1", make_record(wall=2.0))
            rows = index.history("bench")
            assert len(rows) == 1
            assert rows[0]["wall_seconds"] == 2.0
            assert rows[0]["run_seconds"] == 1.0  # phases["run"]

    def test_history_is_newest_first_and_joined(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            for i in (1, 2, 3):
                index.record_run(make_manifest(f"r{i}",
                                               started_at=1000.0 + i))
                index.record_benchmark(f"r{i}", make_record(wall=float(i)))
            rows = index.history("bench")
            assert [row["run_id"] for row in rows] == ["r3", "r2", "r1"]
            assert rows[0]["pythonhashseed"] == "2009"
            assert [row["run_id"]
                    for row in index.history("bench", last=2)] == ["r3",
                                                                  "r2"]

    def test_benchmark_names_are_distinct_and_sorted(self, tmp_path):
        with RunIndex.at_root(str(tmp_path)) as index:
            index.record_run(make_manifest("r1"))
            index.record_benchmark("r1", make_record(name="zeta"))
            index.record_benchmark("r1", make_record(name="alpha"))
            index.record_run(make_manifest("r2", started_at=1001.0))
            index.record_benchmark("r2", make_record(name="alpha"))
            assert index.benchmark_names() == ["alpha", "zeta"]

    def test_refuses_newer_index_schema(self, tmp_path):
        import sqlite3

        path = tmp_path / run_index.INDEX_NAME
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = "
                     f"{run_index.INDEX_SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(ValueError, match="newer"):
            RunIndex(str(path))


class TestSessionStore:
    KEY = ("Workload", 2009, 0.1, False, "fp")

    def test_digest_is_stable(self):
        assert SessionStore.digest(self.KEY) == \
            SessionStore.digest(("Workload", 2009, 0.1, False, "fp"))
        assert SessionStore.digest(self.KEY) != \
            SessionStore.digest(self.KEY + ("x",))

    def test_put_get_roundtrip(self, tmp_path):
        store = SessionStore(str(tmp_path))
        assert store.put(self.KEY, {"session": 1}) is True
        assert store.put(self.KEY, {"session": 1}) is False  # idempotent
        assert len(store) == 1
        assert store.get(self.KEY) == {"session": 1}
        assert store.get(("other",)) is None

    def test_corrupt_entry_warns_and_is_skipped(self, tmp_path):
        store = SessionStore(str(tmp_path))
        store.put(self.KEY, "good")
        store.put(("other",), "alsogood")
        with open(store.path_for(self.KEY), "wb") as handle:
            handle.write(b"\x80\x04 truncated garbage")
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.get(self.KEY) is None
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.sessions() == ["alsogood"]

    def test_put_never_clobbers_and_sessions_lists_every_entry(
            self, tmp_path):
        store = SessionStore(str(tmp_path))
        assert store.put(("a",), 1) is True
        assert store.put(("b",), 2) is True
        assert store.put(("a",), "rewrite") is False   # already stored
        assert sorted(store.sessions()) == [1, 2]
        assert store.get(("a",)) == 1

    def test_entry_filed_under_another_key_is_a_miss(self, tmp_path):
        """The store checks the key it stored: an entry copied to
        another key's file name must not answer for that key."""
        store = SessionStore(str(tmp_path))
        store.put(("a",), "session-a")
        shutil.copyfile(store.path_for(("a",)), store.path_for(("b",)))
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.get(("b",)) is None
        with pytest.warns(RuntimeWarning, match="corrupt or truncated"):
            assert store.sessions() == ["session-a"]
        assert store.get(("a",)) == "session-a"

    def test_failed_put_leaves_no_temp_files(self, tmp_path, monkeypatch):
        store = SessionStore(str(tmp_path))

        def boom(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(run_index.os, "replace", boom)
        with pytest.raises(OSError):
            store.put(self.KEY, "session")
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

    def test_lint_drift_loader_reads_a_store(self, tmp_path):
        from repro.lint.drift import load_sessions

        store = SessionStore(str(tmp_path))
        store.put(("a",), "session-a")
        assert load_sessions(str(tmp_path)) == ["session-a"]


class TestCliHistory:
    def _index(self, root):
        """An index as ``perf`` at schema v4 wrote it (rows with wall
        and run times) plus a schema-v5 ``perf`` row and an experiment
        row (neither has a run time; the v5 row has no wall time)."""
        with RunIndex.at_root(str(root)) as index:
            index.record_run(make_manifest("20200101T000000-perf-aaaa",
                                           started_at=1000.0))
            index.record_benchmark("20200101T000000-perf-aaaa",
                                   make_record(name="tvla_capture_on",
                                               wall=0.5, ticks=204278))
            index.record_run(make_manifest("20200102T000000-perf-bbbb",
                                           started_at=2000.0))
            index.record_benchmark(
                "20200102T000000-perf-bbbb",
                {"name": "tvla_capture_on", "workload": "tvla",
                 "capture": True, "ticks": 204278, "gc_cycles": 1,
                 "allocated_objects": 1773})
            index.record_run(make_manifest(
                "20200103T000000-experiment-cccc", started_at=3000.0,
                kind="experiment"))
            index.record_benchmark("20200103T000000-experiment-cccc",
                                   {"name": "experiment:fig6",
                                    "wall_seconds": 2.5})

    def test_history_errors_without_an_index(self, tmp_path):
        with pytest.raises(SystemExit, match="no index"):
            main(["history", "--runs-root", str(tmp_path / "empty")])

    def test_lists_runs_newest_first(self, tmp_path, capsys):
        self._index(tmp_path)
        assert main(["history", "--runs-root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 indexed run(s)" in out
        assert out.index("experiment-cccc") < out.index("perf-bbbb") \
            < out.index("perf-aaaa")
        assert "benchmarks: experiment:fig6, tvla_capture_on" in out
        assert main(["history", "--last", "1",
                     "--runs-root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 indexed run(s)" in out and "perf-bbbb" not in out

    def test_series_shows_rows_with_and_without_wall_times(self, tmp_path,
                                                           capsys):
        self._index(tmp_path)
        assert main(["history", "tvla_capture_on",
                     "--runs-root", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("tvla_capture_on: 2 indexed run(s), newest "
                            "first")
        v5, v4 = lines[2].split(), lines[3].split()
        assert v5[:4] == ["20200102T000000-perf-bbbb", "-", "-", "204278"]
        assert v4[:4] == ["20200101T000000-perf-aaaa", "0.5000", "0.2500",
                          "204278"]
        assert main(["history", "experiment:fig6",
                     "--runs-root", str(tmp_path)]) == 0
        assert "2.5000" in capsys.readouterr().out

    def test_perf_run_writes_manifest_and_rows(self, tmp_path, capsys):
        from repro.analysis.index import MANIFEST_NAME

        root = tmp_path / "runs"
        assert main(["perf", "--output", str(tmp_path / "BENCH.json"),
                     "--runs-root", str(root)]) == 0
        capsys.readouterr()
        manifests = list(root.glob(f"*/{MANIFEST_NAME}"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        run_index.validate_manifest(manifest)
        assert manifest["kind"] == "perf"
        assert manifest["config_fingerprint"]
        assert "BENCH_chameleon.json" in manifest["artifacts"]
        with RunIndex.at_root(str(root)) as index:
            assert len(index.runs(kind="perf")) == 1
            assert "tvla_capture_on" in index.benchmark_names()
