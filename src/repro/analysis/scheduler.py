"""Process-pool experiment scheduler: deterministic fan-out for the suite.

The paper's evaluation is a bag of *independent, deterministic* simulated
runs: every Fig. 6 bar is three minimal-heap searches and every Fig. 7
bar a search plus a timed run.  A search is a serial chain of probe
runs, but nothing one search computes feeds another, so the experiments
submit one job per bar and those parallelise perfectly -- the same
structure Darwinian Data Structure Selection and MapReplay exploit to
make search-over-benchmarks tractable.

This module supplies the execution layer:

* :class:`Job` / :class:`JobGraph` -- an insertion-ordered batch of
  named, independent work units (a picklable top-level function plus
  positional arguments); ids must be unique.
* :class:`Scheduler` -- runs a batch either **in-process** (``jobs=1``,
  the reference path: plain sequential calls, no pickling, no pool) or on
  a persistent ``multiprocessing`` worker pool (``jobs>1``).

The pool is created once per :class:`Scheduler` lifetime and reused
across every :meth:`Scheduler.run` call; a ``warmup`` hook runs once in
each worker at pool creation (attach the shared session store,
pre-import the tool stack), so per-job latency is pure work.  A pooled
run submits every job at once and folds results in as they arrive.
Per-run overhead (pool spawn, in-worker wall, transfer, merge) is
accumulated in :attr:`Scheduler.stats` so the perf harness can record a
measured breakdown instead of asserting the win.

Determinism contract: results are merged in job-insertion order, and
every job must be a pure function of its (picklable) arguments.  Under
that contract the output of ``Scheduler(jobs=n).run(graph)`` is
identical for every ``n`` and every start method -- the experiment
runners and their tests rely on it.  Nothing here depends on the
interpreter's hash seed: the simulated hash tables use Java hash codes
(:func:`~repro.collections.base.java_hash_code`), so a worker started
under any hash seed computes what the serial reference does, in this
invocation or any other.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from collections import deque
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Job", "JobGraph", "JobError", "Scheduler", "SchedulerStats"]

#: How often a pooled run that is waiting for results checks that no
#: worker has died.  A result arriving wakes the wait at once, so this
#: only bounds how long a lost job goes unnoticed.
_LIVENESS_POLL_SECONDS = 0.2


class JobError(RuntimeError):
    """A job raised; carries the job id so failures are attributable."""

    def __init__(self, job_id: str, cause: BaseException) -> None:
        super().__init__(f"job {job_id!r} failed: "
                         f"{type(cause).__name__}: {cause}")
        self.job_id = job_id


@dataclass(frozen=True)
class Job:
    """One unit of work: a picklable top-level function plus arguments."""

    job_id: str
    fn: Callable[..., Any]
    args: Tuple = ()


class JobGraph:
    """An insertion-ordered batch of independent jobs."""

    def __init__(self) -> None:
        self._jobs: Dict[str, Job] = {}

    def add(self, job_id: str, fn: Callable[..., Any], *args: Any) -> Job:
        """Append a job; insertion order is the deterministic merge order."""
        if job_id in self._jobs:
            raise ValueError(f"duplicate job id {job_id!r}")
        job = Job(job_id=job_id, fn=fn, args=args)
        self._jobs[job_id] = job
        return job

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self):
        return iter(self._jobs.values())

    def job_ids(self) -> List[str]:
        """Job ids in insertion (merge) order."""
        return list(self._jobs)


@dataclass
class SchedulerStats:
    """Accumulated overhead breakdown across a scheduler's lifetime.

    All values are wall-clock seconds measured by the parent (worker
    wall is measured in-worker and shipped back with each result):

    * ``spawn_seconds`` -- creating the worker pool (once per scheduler;
      worker warmup runs asynchronously and surfaces as first-job
      transfer time).
    * ``worker_seconds`` -- sum of in-worker job execution wall time.
    * ``transfer_seconds`` -- sum over jobs of (submit-to-result-arrival
      time minus in-worker wall): argument pickling, queue wait, and
      result shipping.
    * ``merge_seconds`` -- parent-side result folding.
    """

    jobs_executed: int = 0
    spawn_seconds: float = 0.0
    worker_seconds: float = 0.0
    transfer_seconds: float = 0.0
    merge_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-ready snapshot (what the BENCH suite section records)."""
        return asdict(self)


def _invoke_timed(fn: Callable[..., Any], args: Tuple) -> Tuple[Any, float]:
    """Pool-mode entry point (must stay picklable): the job's result plus
    its in-worker wall time, so the parent can split transfer overhead
    from real work."""
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


class Scheduler:
    """Executes a :class:`JobGraph`, serially or on a process pool.

    ``jobs=1`` is the pure in-process reference path: no pool is created,
    no argument is pickled, and jobs run in insertion order.  ``jobs>1``
    runs jobs on a *persistent* ``multiprocessing`` pool (``fork`` start
    method where available, so workers inherit the parent's interned
    state), created once per scheduler lifetime -- by the first
    :meth:`run`, even of an empty graph -- warmed by the optional
    ``warmup`` hook, and reused across every :meth:`run`.  Every job is
    submitted at once and merged as it completes; the returned mapping
    is nonetheless always in job-insertion order, so callers observe
    identical results at any parallelism.

    ``warmup`` is a ``(fn, args)`` pair, ``fn`` a picklable top-level
    function, run once in each worker at pool creation -- attach the
    shared session store, pre-import the workload stack, etc.

    A worker that dies mid-run (killed, crashed) fails the run with a
    :class:`JobError` naming the unfinished jobs, and the pool is torn
    down so the next :meth:`run` starts a fresh one.
    """

    def __init__(self, jobs: int = 1,
                 warmup: Optional[Tuple[Callable, Sequence]] = None
                 ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        if warmup is None:
            self._warmup_fn, self._warmup_args = None, ()
        else:
            self._warmup_fn, self._warmup_args = warmup[0], tuple(warmup[1])
        self._pool = None
        self._workers: List[Any] = []
        self.stats = SchedulerStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            # Fork where the platform has it: the cheaper start method.
            if "fork" in multiprocessing.get_all_start_methods():
                context = multiprocessing.get_context("fork")
            else:
                context = multiprocessing.get_context()
            spawn_start = time.perf_counter()
            self._pool = context.Pool(
                processes=self.jobs, initializer=self._warmup_fn,
                initargs=self._warmup_args)
            # The pool silently replaces a worker that dies, and the job
            # it was running never completes; keeping the original
            # processes lets _run_pooled notice the death instead.
            self._workers = list(self._pool._pool)
            self.stats.spawn_seconds += time.perf_counter() - spawn_start
        return self._pool

    def _dead_worker(self) -> Optional[str]:
        """Describe the first pool worker that has exited, if any; pool
        workers only exit when the pool shuts down."""
        for process in self._workers:
            if process.exitcode is not None:
                return (f"pool worker pid {process.pid} exited with code "
                        f"{process.exitcode}")
        return None

    def close(self) -> None:
        """Graceful shutdown (idempotent): waits for outstanding work
        and lets workers run their cleanup (atexit hooks, coverage
        flushes) instead of killing them mid-write."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            self._workers = []

    def terminate(self) -> None:
        """Hard shutdown (idempotent): kill workers without waiting.
        Reserved for the error path -- on the happy path use
        :meth:`close` so workers are not killed mid-cleanup."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None
            self._workers = []

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, graph: JobGraph) -> Dict[str, Any]:
        """Execute ``graph``; returns ``{job_id: result}`` in insertion
        order regardless of completion order or parallelism."""
        if self.jobs > 1:
            results = self._run_pooled(graph)
            return {job_id: results[job_id] for job_id in graph.job_ids()}
        results = {}
        for job in graph:
            try:
                results[job.job_id] = job.fn(*job.args)
            except Exception as exc:
                raise JobError(job.job_id, exc) from exc
        self.stats.jobs_executed += len(graph)
        return results

    def _run_pooled(self, graph: JobGraph) -> Dict[str, Any]:
        """Submit every job to the pool, then fold results in as they
        arrive (completion order)."""
        pool = self._ensure_pool()
        cond = threading.Condition()
        arrivals: deque = deque()
        failures: List[Tuple[str, BaseException]] = []
        submit_times: Dict[str, float] = {}

        def submit(job: Job) -> None:
            job_id = job.job_id

            def on_done(payload: Tuple[Any, float]) -> None:
                arrival = time.perf_counter()
                with cond:
                    arrivals.append((job_id, payload, arrival))
                    cond.notify()

            def on_error(exc: BaseException) -> None:
                with cond:
                    failures.append((job_id, exc))
                    cond.notify()

            submit_times[job_id] = time.perf_counter()
            pool.apply_async(_invoke_timed, (job.fn, job.args),
                             callback=on_done, error_callback=on_error)

        for job in graph:
            submit(job)

        stats = self.stats
        results: Dict[str, Any] = {}
        dead = None
        while len(results) < len(graph):
            with cond:
                while not arrivals and not failures and dead is None:
                    if not cond.wait(_LIVENESS_POLL_SECONDS):
                        dead = self._dead_worker()
                if failures:
                    job_id, exc = failures[0]
                    raise JobError(job_id, exc) from exc
                arrived = arrivals.popleft() if arrivals else None
            if arrived is None:
                # A job the dead worker held will never arrive.  Tear the
                # pool down (outside the lock: its result handler may be
                # waiting for it) so the next run starts a fresh one.
                self.terminate()
                unfinished = [job_id for job_id in submit_times
                              if job_id not in results]
                raise JobError(unfinished[0], RuntimeError(
                    f"{dead}; unfinished: {', '.join(unfinished)}"))
            job_id, (result, worker_wall), arrival = arrived
            merge_start = time.perf_counter()
            results[job_id] = result
            stats.jobs_executed += 1
            stats.worker_seconds += worker_wall
            stats.transfer_seconds += max(
                0.0, (arrival - submit_times[job_id]) - worker_wall)
            stats.merge_seconds += time.perf_counter() - merge_start
        return results
