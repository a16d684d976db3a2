"""The command-line interface."""

import pathlib

import pytest

from repro.cli import build_parser, main


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

    def test_list_includes_scenario_library(self, capsys):
        from repro.workloads.compiled import SCENARIOS

        _, out = run_cli(capsys, "list")
        assert "scenario library" in out
        for name in SCENARIOS:
            assert name in out
        assert "[heavy-tail]" in out and "[multi-tenant]" in out

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

    def test_experiment_rejects_zero_jobs(self):
        with pytest.raises(SystemExit, match="--jobs"):
            main(["experiment", "fig3", "--scale", "0.1", "--jobs", "0"])

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

    def test_compile_trace_runs_and_checks(self, capsys):
        corpus = pathlib.Path(__file__).parents[1] / "verify" / "corpus"
        code, out = run_cli(capsys, "compile-trace",
                            str(corpus / "tvla-map-000.json"),
                            str(corpus / "bloat-list-000.json"),
                            "--rounds", "2", "--sanitize")
        assert code == 0
        assert out.count("sanitizer=clean") == 2

    def test_compile_trace_multi_tenant(self, capsys):
        corpus = pathlib.Path(__file__).parents[1] / "verify" / "corpus"
        code, out = run_cli(capsys, "compile-trace",
                            str(corpus / "tvla-map-000.json"),
                            str(corpus / "pmd-set-000.json"),
                            "--multi-tenant")
        assert code == 0
        assert "multi-tenant(" in out
        assert out.count("ticks=") == 1  # one woven run, not two

    def test_compile_trace_rejects_garbage_input(self, tmp_path):
        bogus = tmp_path / "not-a-trace.json"
        bogus.write_text("{\"format\": 1}", encoding="utf-8")
        with pytest.raises(SystemExit, match="not a readable trace"):
            main(["compile-trace", str(bogus)])

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
