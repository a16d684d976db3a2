"""Fuzz campaign driver: generate -> diff -> shrink -> emit repro.

This is the engine behind ``chameleon-repro fuzz``.  Each round draws one
deterministic trace (:mod:`repro.verify.generate`), replays it against
every eligible implementation (:mod:`repro.verify.trace`), and on
divergence shrinks the trace (:mod:`repro.verify.shrink`) and writes a
standalone repro script.  Record mode instead runs a registered workload
under a :class:`~repro.verify.trace.TraceRecorder` and saves the captured
traces as a corpus.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.verify.generate import ADT_KINDS, generate_trace
from repro.verify.shrink import (ShrinkStats, make_failure_checker,
                                 shrink_trace, write_repro_script)
from repro.verify.trace import DiffReport, Trace, TraceRecorder, diff_trace

__all__ = ["FuzzFailure", "FuzzResult", "run_fuzz", "record_workload"]


@dataclass
class FuzzFailure:
    """One divergence found (and, when enabled, shrunk) by a campaign."""

    adt: str
    seed: int
    report: DiffReport
    shrunk: Optional[Trace] = None
    repro_path: Optional[str] = None

    def describe(self) -> str:
        lines = [f"FAILURE adt={self.adt} seed={self.seed}"]
        if self.shrunk is not None:
            lines.append(f"  shrunk to {len(self.shrunk.ops)} op(s) "
                         f"(from {self.shrunk.meta.get('shrunk_from', '?')})")
        if self.repro_path:
            lines.append(f"  repro script: {self.repro_path}")
        lines.append(self.report.summary())
        return "\n".join(lines)


@dataclass
class FuzzResult:
    """Aggregate outcome of one fuzz campaign."""

    traces_run: int = 0
    ops_replayed: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_exhausted: bool = False

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.failures)} FAILURE(S)"
        lines = [f"fuzz: {self.traces_run} trace(s), "
                 f"{self.ops_replayed} op(s) replayed in "
                 f"{self.elapsed_s:.1f}s -> {status}"]
        if self.budget_exhausted:
            lines.append("fuzz: time budget exhausted before all seeds ran")
        for failure in self.failures:
            lines.append(failure.describe())
        return "\n".join(lines)


def run_fuzz(adts: List[str], seeds: int, budget_s: Optional[float] = None,
             n_ops: int = 40, out_dir: Optional[str] = None,
             shrink: bool = True, sanitize: bool = True,
             log: Optional[Callable[[str], None]] = None,
             max_failures: int = 5) -> FuzzResult:
    """Run a differential fuzz campaign.

    Args:
        adts: ADT names to fuzz (subset of ``list``/``set``/``map``).
        seeds: Seeds per ADT (seed ``0 .. seeds-1``).
        budget_s: Optional wall-clock budget; the campaign stops cleanly
            when exceeded (completed seeds only -- never mid-diff).
        n_ops: Ops per generated trace.
        out_dir: Where shrunk repro scripts (and failing trace JSON) go;
            created on first failure.
        shrink: Whether to minimise failing traces.
        sanitize: Attach the heap sanitizer to every replay VM.
        log: Progress callback (one line per event).
        max_failures: Stop after this many distinct failures.
    """
    for adt in adts:
        if adt not in ADT_KINDS:
            raise ValueError(f"unknown adt {adt!r}")
    emit = log or (lambda line: None)
    result = FuzzResult()
    started = time.monotonic()

    for seed in range(seeds):
        for adt in adts:
            if budget_s is not None \
                    and time.monotonic() - started > budget_s:
                result.budget_exhausted = True
                result.elapsed_s = time.monotonic() - started
                emit(f"budget exhausted after {result.traces_run} traces")
                return result
            trace = generate_trace(adt, seed, n_ops=n_ops)
            report = diff_trace(trace, sanitize=sanitize)
            result.traces_run += 1
            result.ops_replayed += len(trace.ops) * len(report.results)
            if report.ok:
                continue
            failure = _handle_failure(adt, seed, trace, report,
                                      out_dir=out_dir, shrink=shrink,
                                      sanitize=sanitize, emit=emit)
            result.failures.append(failure)
            if len(result.failures) >= max_failures:
                emit(f"stopping after {max_failures} failures")
                result.elapsed_s = time.monotonic() - started
                return result

    result.elapsed_s = time.monotonic() - started
    return result


def _handle_failure(adt: str, seed: int, trace: Trace, report: DiffReport,
                    out_dir: Optional[str], shrink: bool, sanitize: bool,
                    emit: Callable[[str], None]) -> FuzzFailure:
    signature = report.failure_signature()
    emit(f"divergence: adt={adt} seed={seed} signature={signature}")
    failure = FuzzFailure(adt=adt, seed=seed, report=report)
    shrunk = trace
    if shrink and signature is not None:
        shrunk = shrink_trace(
            trace, make_failure_checker(signature, sanitize=sanitize),
            stats=ShrinkStats())
        failure.shrunk = shrunk
        failure.report = diff_trace(shrunk, sanitize=sanitize)
        emit(f"shrunk {len(trace.ops)} -> {len(shrunk.ops)} ops")
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"repro-{adt}-seed{seed}")
        with open(stem + ".json", "w", encoding="utf-8") as handle:
            handle.write(shrunk.to_json(indent=2))
        failure.repro_path = write_repro_script(shrunk, stem + ".py")
        emit(f"wrote {failure.repro_path}")
    return failure


def record_workload(name: str, scale: float = 0.1, seed: int = 1,
                    out_dir: Optional[str] = None,
                    max_traces: Optional[int] = 50,
                    min_ops: int = 3) -> List[Trace]:
    """Run workload ``name`` with a trace recorder attached; optionally
    save the captured traces (one JSON file each) under ``out_dir``.

    Only traces with at least ``min_ops`` operations are kept -- tiny
    touch-once collections dominate real workloads and add nothing to a
    differential corpus.
    """
    from repro.core.chameleon import Chameleon
    from repro.workloads import default_workload_registry

    workload = default_workload_registry().create(name, seed=seed,
                                                  scale=scale)
    vm = Chameleon().make_vm()
    recorder = TraceRecorder(max_traces=max_traces).install(vm)
    try:
        workload.run(vm)
        vm.finish()
    finally:
        vm.release()

    kept = [t for t in recorder.traces if len(t.ops) >= min_ops]
    kept.sort(key=lambda t: len(t.ops), reverse=True)
    for index, trace in enumerate(kept):
        trace.meta.update({"workload": name, "scale": scale, "seed": seed})
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        for index, trace in enumerate(kept):
            kind = trace.kind.value.lower()
            path = os.path.join(out_dir, f"{name}-{kind}-{index:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(trace.to_json(indent=2))
    return kept
