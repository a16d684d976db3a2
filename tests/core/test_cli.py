"""The command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["profile", "tvla"])
        assert args.scale == 0.4
        assert args.top == 5

    def test_experiment_scheduler_defaults(self):
        args = build_parser().parse_args(["experiment", "fig6"])
        assert args.jobs == 1          # serial reference path by default
        assert args.session_cache is None


class TestCommands:
    def test_list(self, capsys):
        code, out = run_cli(capsys, "list")
        assert code == 0
        for name in ("tvla", "soot", "pmd", "dacapo-compress"):
            assert name in out

    def test_profile(self, capsys):
        code, out = run_cli(capsys, "profile", "tvla",
                            "--scale", "0.1", "--top", "3")
        assert code == 0
        assert "allocation contexts" in out
        assert "ArrayMap" in out
        assert "GC cycles" in out

    def test_profile_fractions_flag(self, capsys):
        _, out = run_cli(capsys, "profile", "tvla", "--scale", "0.1",
                         "--fractions")
        assert "live%" in out

    def test_optimize(self, capsys):
        code, out = run_cli(capsys, "optimize", "findbugs",
                            "--scale", "0.12")
        assert code == 0
        assert "ReplacementMap" in out
        assert "peak footprint" in out

    def test_online(self, capsys):
        code, out = run_cli(capsys, "online", "tvla", "--scale", "0.12",
                            "--retrofit")
        assert code == 0
        assert "slowdown" in out

    def test_experiment_fig3(self, capsys, tmp_path):
        code, out = run_cli(capsys, "experiment", "fig3",
                            "--scale", "0.1",
                            "--runs-root", str(tmp_path / "runs"))
        assert code == 0
        assert "potential" in out
        assert "indexed run" in out

    def test_unknown_workload_exits_with_hint(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["profile", "quake"])
        assert "available" in str(excinfo.value)

    def test_experiment_with_jobs(self, capsys):
        code, out = run_cli(capsys, "experiment", "fig7",
                            "--scale", "0.05", "--resolution", "32768",
                            "--jobs", "2", "--no-index")
        assert code == 0
        assert "original minimal heap" in out

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_experiment_manifest_records_the_scheduler_split(
            self, capsys, tmp_path, jobs):
        import json

        from repro.analysis.scheduler import SchedulerStats

        run_cli(capsys, "experiment", "fig7", "--scale", "0.05",
                "--resolution", "32768", "--jobs", str(jobs),
                "--runs-root", str(tmp_path))
        [manifest] = tmp_path.glob("*/manifest.json")
        split = json.loads(manifest.read_text())["results"]["scheduler"]
        assert split.keys() == SchedulerStats().as_dict().keys()
        assert split["jobs_executed"] > 0
        # Only a pool has a spawn cost and measures in-worker time.
        assert (split["spawn_seconds"] > 0) == (jobs > 1)
        assert (split["worker_seconds"] > 0) == (jobs > 1)

    def test_experiment_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["experiment", "fig3", "--scale", "0.1", "--jobs", "0"])

    @pytest.mark.parametrize("message,argv", [
        ("--top must be >= 0", ["optimize", "tvla", "--top", "-1",
                                "--scale", "0.05"]),
        ("--top must be >= 0", ["profile", "tvla", "--top", "-1",
                                "--scale", "0.05"]),
        ("--limit must be >= 0", ["histogram", "tvla", "--limit", "-1",
                                  "--scale", "0.05"]),
        ("--scale must be > 0", ["profile", "tvla", "--scale", "0"]),
        ("--scale must be > 0", ["optimize", "tvla", "--scale", "-1"]),
        ("--scale must be > 0", ["online", "tvla", "--scale", "0"]),
        ("--scale must be > 0", ["experiment", "fig6", "--scale", "-1",
                                 "--no-index"]),
        ("--scale must be > 0", ["fuzz", "--record", "tvla",
                                 "--scale", "0"]),
        ("--last must be >= 1", ["history", "--last", "-1"]),
    ], ids=["optimize-top", "profile-top", "histogram-limit",
            "profile-scale", "optimize-scale", "online-scale",
            "experiment-scale", "fuzz-scale", "history-last"])
    def test_out_of_range_counts_exit(self, message, argv, tmp_path):
        """A negative count would be sliced as ``[:-1]``, a non-positive
        scale builds no workload, and ``--last -1`` would mean no limit,
        so the CLI refuses them before running anything."""
        if argv[0] == "history":
            argv = [*argv, "--runs-root", str(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("flag,argv", [
        ("--resolution", ["experiment", "fig6", "--resolution", "0"]),
    ], ids=["experiment"])
    def test_resolution_below_one_exits(self, flag, argv, tmp_path):
        """A min-heap search at resolution 0 never ends, so the CLI
        refuses it before running anything.  In a subprocess so a
        regression fails on the timeout instead of hanging the suite."""
        env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--no-index"],
            capture_output=True, text=True, timeout=30, cwd=str(tmp_path),
            env=env)
        assert done.returncode != 0
        assert done.stderr.strip() == f"{flag} must be >= 1"

    def test_experiment_session_cache_roundtrip(self, capsys, tmp_path):
        from repro.analysis import experiments

        # The first invocation creates the store, parents included.
        cache_path = str(tmp_path / "cache" / "sessions")
        experiments.reset_session_cache()
        _, first = run_cli(capsys, "experiment", "fig7",
                           "--scale", "0.05", "--resolution", "32768",
                           "--session-cache", cache_path, "--no-index")
        assert (tmp_path / "cache" / "sessions").is_dir()
        # A later invocation (fresh in-memory cache) reads the stored
        # sessions and reproduces the identical artifact.
        experiments.reset_session_cache()
        _, second = run_cli(capsys, "experiment", "fig7",
                            "--scale", "0.05", "--resolution", "32768",
                            "--session-cache", cache_path, "--no-index")
        assert second == first
        assert experiments.get_session_cache().hits > 0
        experiments.reset_session_cache()

    def test_experiment_session_cache_reaches_pool_workers(self, capsys,
                                                           tmp_path):
        """Every process writes the sessions it profiles through to the
        store: --jobs 2 leaves the entries --jobs 1 leaves, a warm store
        reproduces the output, and no store stays attached."""
        from repro.analysis import experiments

        def run(jobs, store):
            experiments.reset_session_cache()
            _, out = run_cli(capsys, "experiment", "fig6", "--scale", "0.05",
                             "--jobs", str(jobs), "--session-cache",
                             str(store), "--no-index")
            assert experiments.get_session_cache().backing_store is None
            return out, sorted(path.name for path in store.iterdir())

        serial, serial_entries = run(1, tmp_path / "serial")
        parallel, parallel_entries = run(2, tmp_path / "parallel")
        assert serial_entries and parallel_entries == serial_entries
        warm, warm_entries = run(2, tmp_path / "parallel")
        assert parallel == serial and warm == serial
        assert warm_entries == serial_entries
        experiments.reset_session_cache()

    def test_experiment_detaches_the_store_when_it_fails(self, tmp_path,
                                                          monkeypatch):
        from repro import cli
        from repro.analysis import experiments

        def boom(args, scheduler):
            raise RuntimeError("experiment failed")

        monkeypatch.setitem(cli._EXPERIMENTS, "fig3", boom)
        with pytest.raises(RuntimeError, match="experiment failed"):
            main(["experiment", "fig3", "--session-cache",
                  str(tmp_path / "store"), "--no-index"])
        assert experiments.get_session_cache().backing_store is None

    def test_experiment_session_cache_refuses_a_file(self, tmp_path):
        legacy = tmp_path / "sessions.pkl"
        legacy.write_bytes(b"\x80\x04 an old single-pickle spill")
        with pytest.raises(SystemExit,
                           match="not a session-store directory"):
            main(["experiment", "fig3", "--scale", "0.05",
                  "--session-cache", str(legacy), "--no-index"])

    def test_experiment_session_store_roundtrip(self, capsys, tmp_path):
        """--session-cache writes one content-addressed file per
        entry."""
        from repro.analysis import experiments

        store_dir = tmp_path / "store"
        experiments.reset_session_cache()
        _, first = run_cli(capsys, "experiment", "fig7",
                           "--scale", "0.05", "--resolution", "32768",
                           "--session-cache", str(store_dir), "--no-index")
        spilled = list(store_dir.glob("*.pkl"))
        assert len(spilled) == len(experiments.get_session_cache())
        experiments.reset_session_cache()
        _, second = run_cli(capsys, "experiment", "fig7",
                            "--scale", "0.05", "--resolution", "32768",
                            "--session-cache", str(store_dir), "--no-index")
        assert second == first
        assert experiments.get_session_cache().hits > 0
        experiments.reset_session_cache()
