"""Process-pool experiment scheduler: graph semantics and determinism."""

import os
import pathlib
import subprocess
import sys
import textwrap
from unittest import mock

import pytest

from repro.analysis import scheduler as scheduler_mod
from repro.analysis.scheduler import Job, JobError, JobGraph, Scheduler
from repro.memory.heap import OutOfMemoryError

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

# Job functions must be module-level so pool workers can unpickle them.


def add(a, b):
    return a + b


def square(x):
    return x * x


def combine(deps, suffix):
    return "+".join(f"{key}={value}" for key, value in deps.items()) \
        + f":{suffix}"


def boom():
    raise RuntimeError("kaboom")


def out_of_memory():
    raise OutOfMemoryError(requested=64, live=2000, limit=2048)


def exit_on_one(x):
    """Kill the worker process outright on input 1, as the kernel's OOM
    killer or a segfault would."""
    if x == 1:
        os._exit(3)
    return x


def make_graph():
    graph = JobGraph()
    graph.add("a", add, 1, 2)
    graph.add("b", square, 4)
    graph.add("c", combine, "done", deps=("a", "b"))
    return graph


class TestJobGraph:
    def test_insertion_order_is_merge_order(self):
        graph = make_graph()
        assert graph.job_ids() == ["a", "b", "c"]

    def test_duplicate_id_rejected(self):
        graph = JobGraph()
        graph.add("a", add, 1, 2)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add("a", add, 3, 4)
        with pytest.raises(ValueError, match="duplicate"):
            graph.add_job(Job("a", add, (5, 6)))

    def test_unknown_dependency_rejected(self):
        graph = JobGraph()
        graph.add("a", add, 1, 2, deps=("ghost",))
        with pytest.raises(ValueError, match="unknown job 'ghost'"):
            graph.waves()

    def test_cycle_rejected(self):
        graph = JobGraph()
        graph.add("a", add, 1, 2, deps=("b",))
        graph.add("b", square, 3, deps=("a",))
        with pytest.raises(ValueError, match="cycle"):
            graph.waves()

    def test_waves_respect_dependencies(self):
        graph = make_graph()
        waves = [[job.job_id for job in wave] for wave in graph.waves()]
        assert waves == [["a", "b"], ["c"]]


class TestSerialScheduler:
    def test_runs_in_order_with_dep_results(self):
        results = Scheduler(jobs=1).run(make_graph())
        assert results == {"a": 3, "b": 16, "c": "a=3+b=16:done"}
        assert list(results) == ["a", "b", "c"]

    def test_job_error_names_the_job(self):
        graph = JobGraph()
        graph.add("explodes", boom)
        with pytest.raises(JobError, match="explodes.*kaboom"):
            Scheduler(jobs=1).run(graph)

    def test_map_preserves_input_order(self):
        results = Scheduler(jobs=1).map(square, [(3,), (1,), (2,)])
        assert results == [9, 1, 4]

    def test_invalid_job_count(self):
        with pytest.raises(ValueError):
            Scheduler(jobs=0)


class TestPoolScheduler:
    def test_results_identical_to_serial(self):
        serial = Scheduler(jobs=1).run(make_graph())
        with Scheduler(jobs=2) as scheduler:
            parallel = scheduler.run(make_graph())
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_map_identical_to_serial(self):
        payloads = [(n,) for n in range(20)]
        serial = Scheduler(jobs=1).map(square, payloads)
        with Scheduler(jobs=3) as scheduler:
            assert scheduler.map(square, payloads) == serial

    def test_job_error_propagates_with_job_id(self):
        graph = JobGraph()
        graph.add("fine", add, 1, 1)
        graph.add("explodes", boom)
        with Scheduler(jobs=2) as scheduler:
            with pytest.raises(JobError, match="explodes"):
                scheduler.run(graph)

    def test_out_of_memory_in_a_worker_raises_job_error(self):
        """An exception crosses back from a worker pickled; one that
        cannot be rebuilt kills the pool's result handler and leaves
        ``run`` waiting forever.  Run in a subprocess so a regression
        fails on the timeout instead of hanging the suite."""
        script = textwrap.dedent("""
            from repro.analysis.scheduler import JobError, Scheduler
            from tests.analysis.test_scheduler import out_of_memory

            for jobs in (1, 2):
                with Scheduler(jobs=jobs) as scheduler:
                    try:
                        scheduler.map(out_of_memory, [()], prefix="oom")
                    except JobError as exc:
                        print(exc)
        """)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                              str(REPO_ROOT)])}
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              cwd=str(REPO_ROOT), env=env)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 2, done.stdout + done.stderr
        serial, pooled = lines
        assert pooled == serial
        assert pooled.startswith("job 'oom:0000' failed: "
                                 "OutOfMemoryError: out of memory")

    def test_dead_worker_raises_job_error(self):
        """A worker that dies takes its job with it, and only job
        callbacks would wake ``run``.  It must notice the death, raise
        ``JobError`` naming the lost job, and leave a fresh, warmed pool
        for the next run.  In a subprocess, like the test above, so a
        regression fails on the timeout instead of hanging the suite."""
        script = textwrap.dedent("""
            import tempfile
            import time
            from repro.analysis.scheduler import JobError, Scheduler
            from tests.analysis.test_scheduler import (
                exit_on_one, is_warm, make_graph, warm_stamp)

            stamps = tempfile.mkdtemp()
            with Scheduler(jobs=2,
                           warmup=(warm_stamp, (stamps,))) as scheduler:
                start = time.perf_counter()
                try:
                    scheduler.map(exit_on_one, [(0,), (1,), (2,)],
                                  prefix="die")
                except JobError as exc:
                    print(exc)
                print(time.perf_counter() - start < 10)
                print(scheduler.run(make_graph()))
                print(scheduler.map(is_warm, [(stamps,)] * 4))
        """)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                              str(REPO_ROOT)])}
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=60,
                              cwd=str(REPO_ROOT), env=env)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.splitlines()
        assert len(lines) == 4, done.stdout + done.stderr
        error, fast, graph, warm = lines
        assert error.startswith("job 'die:0001' failed: RuntimeError: "
                                "pool worker pid "), error
        assert "exited with code 3" in error
        assert "die:0001" in error.split("unfinished: ")[1]
        assert fast == "True"
        assert graph == str(Scheduler(jobs=1).run(make_graph()))
        assert warm == "[True, True, True, True]"

    def test_pool_survives_multiple_runs(self):
        with Scheduler(jobs=2) as scheduler:
            first = scheduler.run(make_graph())
            second = scheduler.run(make_graph())
        assert first == second

    def test_close_is_idempotent(self):
        scheduler = Scheduler(jobs=2)
        scheduler.map(square, [(1,)])
        scheduler.close()
        scheduler.close()


def sleepy_identity(x, delay=0.01):
    import time
    time.sleep(delay)
    return x


def warm_stamp(directory):
    """Warmup hook: leave one stamp file per warmed worker process."""
    import os
    import pathlib
    pathlib.Path(directory, f"warm-{os.getpid()}").touch()


class TestStreamingAndStats:
    """The persistent pool streams completions (no wave barriers) and
    accounts its overhead into ``SchedulerStats``."""

    def test_serial_counts_jobs_without_pool_overhead(self):
        scheduler = Scheduler(jobs=1)
        scheduler.run(make_graph())
        assert scheduler.stats.jobs_executed == 3
        assert scheduler.stats.spawn_seconds == 0.0
        assert scheduler.stats.worker_seconds == 0.0

    def test_pool_stats_accumulate_per_job(self):
        with Scheduler(jobs=2) as scheduler:
            scheduler.run(make_graph())
            scheduler.run(make_graph())
            stats = scheduler.stats
        assert stats.jobs_executed == 6
        assert stats.spawn_seconds > 0.0  # pool created exactly once
        assert stats.worker_seconds > 0.0
        assert stats.transfer_seconds >= 0.0
        assert stats.merge_seconds >= 0.0

    def test_as_dict_is_the_bench_overhead_shape(self):
        with Scheduler(jobs=2) as scheduler:
            scheduler.run(make_graph())
            snapshot = scheduler.stats.as_dict()
        assert set(snapshot) == {"jobs_executed", "spawn_seconds",
                                 "worker_seconds", "transfer_seconds",
                                 "merge_seconds"}
        assert snapshot["jobs_executed"] == 3

    def test_deep_dependency_chain_streams_in_order(self):
        """A diamond-with-tail graph merges deterministically even when
        completions arrive out of submission order."""
        graph = JobGraph()
        graph.add("slow", sleepy_identity, 1, 0.05)
        graph.add("quick", sleepy_identity, 2, 0.0)
        graph.add("join", combine, "j", deps=("slow", "quick"))
        graph.add("tail", combine, "t", deps=("join",))
        serial = Scheduler(jobs=1).run(graph)
        graph2 = JobGraph()
        graph2.add("slow", sleepy_identity, 1, 0.05)
        graph2.add("quick", sleepy_identity, 2, 0.0)
        graph2.add("join", combine, "j", deps=("slow", "quick"))
        graph2.add("tail", combine, "t", deps=("join",))
        with Scheduler(jobs=2) as scheduler:
            parallel = scheduler.run(graph2)
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_warmup_runs_once_per_worker(self, tmp_path):
        with Scheduler(jobs=2,
                       warmup=(warm_stamp, (str(tmp_path),))) as scheduler:
            scheduler.run(make_graph())
            scheduler.run(make_graph())
        assert len(list(tmp_path.glob("warm-*"))) == 2


def is_warm(directory):
    """Whether the warmup hook ran in this worker process."""
    import os
    import pathlib
    return pathlib.Path(directory, f"warm-{os.getpid()}").exists()


class TestShutdownPaths:
    """close() drains workers gracefully; terminate() is the error path."""

    def test_exit_without_error_uses_close(self):
        scheduler = Scheduler(jobs=2)
        scheduler.map(square, [(1,)])
        pool = scheduler._pool
        with mock.patch.object(pool, "close",
                               wraps=pool.close) as closed, \
                mock.patch.object(pool, "terminate",
                                  wraps=pool.terminate) as killed:
            scheduler.__exit__(None, None, None)
        closed.assert_called_once()
        killed.assert_not_called()
        assert scheduler._pool is None

    def test_exit_with_error_terminates(self):
        scheduler = Scheduler(jobs=2)
        scheduler.map(square, [(1,)])
        pool = scheduler._pool
        with mock.patch.object(pool, "close",
                               wraps=pool.close) as closed, \
                mock.patch.object(pool, "terminate",
                                  wraps=pool.terminate) as killed:
            scheduler.__exit__(RuntimeError, RuntimeError("boom"), None)
        killed.assert_called_once()
        closed.assert_not_called()
        assert scheduler._pool is None

    def test_terminate_is_idempotent(self):
        scheduler = Scheduler(jobs=2)
        scheduler.map(square, [(1,)])
        scheduler.terminate()
        scheduler.terminate()


def worker_hash_and_replays():
    """This process's own hash of a str (which the hash seed salts) and
    replays whose ticks hash strings, floats and pairs."""
    from tests.collections.test_java_hash import hash_dependent_observables

    return hash("hash-seed probe"), hash_dependent_observables(n_traces=4)


class TestSpawnStartMethod:
    """Spawned workers start a fresh interpreter, which may draw a
    different hash seed than the parent; results must not notice."""

    def test_spawn_under_another_seed_matches_serial(self, monkeypatch):
        multiprocessing = scheduler_mod.multiprocessing
        get_context = multiprocessing.get_context
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context",
                            lambda method=None: get_context(method
                                                            or "spawn"))
        parent_seed = os.environ.get("PYTHONHASHSEED", "")
        monkeypatch.setenv("PYTHONHASHSEED",
                           "11" if parent_seed == "12" else "12")
        parent_hash, serial = worker_hash_and_replays()
        with Scheduler(jobs=2) as scheduler:
            [(worker_hash, pooled)] = scheduler.map(
                worker_hash_and_replays, [()])
        assert worker_hash != parent_hash  # the worker's seed differs
        assert pooled == serial

    def test_spawn_only_with_hashseed_is_allowed(self, monkeypatch):
        monkeypatch.setattr(scheduler_mod.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        monkeypatch.setenv("PYTHONHASHSEED", "2009")
        with Scheduler(jobs=2) as scheduler:
            assert scheduler.map(square, [(2,), (3,)]) == [4, 9]

    def test_fork_platform_never_consults_the_environment(self,
                                                          monkeypatch):
        monkeypatch.delenv("PYTHONHASHSEED", raising=False)
        with Scheduler(jobs=2) as scheduler:
            assert scheduler.map(square, [(2,)]) == [4]
