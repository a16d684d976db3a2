"""Outside-in tracing: spans and counts taken at the program's layer
boundaries without editing the program.

Two kinds of boundary are wrapped:

* VM level -- ``allocate``, ``capture_allocation_context``,
  ``choose_implementation``, ``finish`` and ``gc.collect`` are wrapped
  as instance attributes of every new ``RuntimeEnvironment``, from a hook
  registered with the public ``repro.runtime.vm.add_vm_created_hook``.
  A synthetic ``workloads.run`` span (``workloads.run.profiled`` when
  the VM profiles) covers each VM from its creation to ``finish`` (or to
  the allocation that ran out of memory), so the workload's own frames
  are never wrapped.
* Module level -- public functions and methods are replaced by wrappers
  while tracing is installed (:data:`MODULE_BOUNDARIES`).

Pool workers are reached through the scheduler's job callables: while
``analysis.scheduler.job`` is installed, ``JobGraph.add`` wraps every job
function in a :class:`TracedJob`.  The worker installs the same
boundaries for the duration of the job, records its spans and timings,
and ships them back inside a :class:`TracedResult` that the parent's
``Scheduler.run`` wrapper unpacks before the experiment code sees the
result.

Every wrapper function is compiled against a globals dict whose
``__name__`` lies under ``repro.runtime``, so the allocation-context
walk in ``repro.runtime.context`` treats wrapper frames like the
library's own frames and never records them as application frames.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
import types
from collections import Counter
from time import perf_counter, process_time
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

#: Boundaries wrapped per VM by the creation hook.
VM_BOUNDARIES = ("workloads.run", "runtime.allocate", "runtime.capture",
                 "runtime.choose_implementation", "runtime.finish",
                 "memory.gc.collect")

#: Boundaries wrapped at module level: name -> (module, attribute path).
MODULE_BOUNDARIES = {
    "core.plain_run": ("repro.core.chameleon", "Chameleon.plain_run"),
    "profiler.build_report": ("repro.core.chameleon", "build_report"),
    "rules.evaluate": ("repro.rules.engine", "RuleEngine.evaluate"),
    "rules.evaluate_context": ("repro.rules.engine",
                               "RuleEngine.evaluate_context"),
    "rules.evaluate_intervals": ("repro.rules.engine",
                                 "RuleEngine.evaluate_intervals"),
    "analysis.minheap.search": ("repro.analysis.experiments",
                                "measure_min_heap"),
    "analysis.minheap.probe": ("repro.analysis.minheap", "min_heap_probe"),
}

SCHEDULER_BOUNDARY = "analysis.scheduler.job"

ALL_BOUNDARIES: Tuple[str, ...] = (VM_BOUNDARIES + tuple(MODULE_BOUNDARIES)
                                   + (SCHEDULER_BOUNDARY,))


class Recorder:
    """This process's span buffer and counters.

    A span is ``(span_id, name, start, end, parent_id, unit)``; span ids
    embed the process id so spans shipped back from pool workers never
    collide with the parent's.
    """

    def __init__(self) -> None:
        self.pid = -1
        self.ids = iter(())
        self.reset(root=None, unit=None)

    def reset(self, root, unit) -> None:
        if self.pid != os.getpid():
            self.pid = os.getpid()
            self.ids = itertools.count((self.pid << 32) + 1)
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.root = root
        self.unit = unit
        self.counts: Counter = Counter()
        self.jobs: List[dict] = []
        self.batch_depth = 0
        # id(vm.clock) -> (span id or None, start, parent, clock,
        # profiling) for every VM whose run has not ended yet
        self.open_runs: Dict[int, tuple] = {}

    def open(self) -> Tuple[int, object]:
        parent = self.stack[-1] if self.stack else self.root
        sid = next(self.ids)
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, name, start, parent) -> None:
        end = perf_counter()
        if self.stack and self.stack[-1] == sid:
            self.stack.pop()
        elif sid in self.stack:
            self.stack.remove(sid)
        self.spans.append((sid, name, start, end, parent, self.unit))


class _Span:
    """Context manager for spans the benchmark opens around its own calls."""

    __slots__ = ("rec", "name", "sid", "parent", "start")

    def __init__(self, rec: Recorder, name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        self.sid, self.parent = self.rec.open()
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.rec.close(self.sid, self.name, self.start, self.parent)


# ----------------------------------------------------------------------
# Wrapper factories.  They are rebuilt below against ``_INTERNAL_GLOBALS``
# (see the module docstring), so they reference only their arguments,
# builtins and names that dict carries.
# ----------------------------------------------------------------------
def _plain(name, fn, rec):
    def traced(*args, **kwargs):
        stack = rec.stack
        parent = stack[-1] if stack else rec.root
        sid = next(rec.ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, rec.unit))
    return traced


def _batch(name, fn, rec):
    """``RuleEngine.evaluate``: its per-context calls belong to it."""
    def traced(*args, **kwargs):
        stack = rec.stack
        parent = stack[-1] if stack else rec.root
        sid = next(rec.ids)
        stack.append(sid)
        rec.batch_depth += 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            rec.batch_depth -= 1
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, rec.unit))
    return traced


def _per_decision(name, fn, rec):
    """``RuleEngine.evaluate_context`` outside a batch ``evaluate``."""
    plain = _plain(name, fn, rec)

    def traced(*args, **kwargs):
        if rec.batch_depth:
            return fn(*args, **kwargs)
        return plain(*args, **kwargs)
    return traced


def _search(name, fn, rec):
    plain = _plain(name, fn, rec)

    def traced(*args, **kwargs):
        result = plain(*args, **kwargs)
        rec.counts["analysis.minheap.probes"] += result.probes
        return result
    return traced


def _probe(name, fn, rec):
    plain = _plain(name, fn, rec)

    def traced(*args, **kwargs):
        completed = plain(*args, **kwargs)
        if not completed:
            rec.counts["analysis.minheap.oom_runs"] += 1
        return completed
    return traced


def _capture(name, fn, rec):
    # `skip + 1` drops this frame before the stack walk, so the walk
    # starts at exactly the frame it starts at without the wrapper.
    def traced(explicit=None, charged=True, skip=0):
        stack = rec.stack
        parent = stack[-1] if stack else rec.root
        sid = next(rec.ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(explicit, charged, skip + 1)
        finally:
            end = perf_counter()
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, rec.unit))
    return traced


def _collect(name, fn, rec):
    plain = _plain(name, fn, rec)

    def traced(*args, **kwargs):
        stats = plain(*args, **kwargs)
        rec.counts["memory.gc.freed_objects"] += stats.freed_objects
        return stats
    return traced


def _end_run(vm, rec, end):
    """Close ``vm``'s workloads.run span, if one is open."""
    entry = rec.open_runs.pop(id(vm.clock), None)
    if entry is not None and entry[0] is not None:
        sid, start, parent, _clock, profiling = entry
        if sid in rec.stack:
            rec.stack.remove(sid)
        name = "workloads.run.profiled" if profiling else "workloads.run"
        rec.spans.append((sid, name, start, end, parent, rec.unit))


def _run_totals(vm, rec):
    """Fold a finished (or out-of-memory) run's own counters in."""
    counts = rec.counts
    ticks = vm.now
    counts["runtime.sim_ticks"] += ticks
    if not vm.profiling_enabled:
        counts["runtime.sim_ticks.unprofiled"] += ticks
    counts["memory.heap.allocated_objects"] += \
        vm.heap.total_allocated_objects
    counts["memory.gc.timeline_cycles"] += vm.timeline.cycle_count
    if vm.profiling_enabled:
        contexts = list(vm.profiler.contexts())
        counts["profiler.contexts"] += len(contexts)
        counts["collections.ops"] += sum(info.total_ops
                                         for info in contexts)


def _allocate(name, fn, rec, vm, oom_error, collection_type):
    def traced(type_name, size, **kwargs):
        stack = rec.stack
        parent = stack[-1] if stack else rec.root
        sid = next(rec.ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(type_name, size, **kwargs)
        except oom_error:
            end = perf_counter()
            stack.pop()
            rec.spans.append((sid, name, start, end, parent, rec.unit))
            sid = None
            rec.counts["runtime.allocate.oom"] += 1
            _end_run(vm, rec, end)
            _run_totals(vm, rec)
            raise
        finally:
            if sid is not None:
                end = perf_counter()
                stack.pop()
                rec.spans.append((sid, name, start, end, parent, rec.unit))
                if isinstance(kwargs.get("payload"), collection_type):
                    rec.counts["collections.instances"] += 1
    return traced


def _finish(name, fn, rec, vm):
    plain = _plain(name, fn, rec)

    def traced():
        _end_run(vm, rec, perf_counter())
        plain()
        _run_totals(vm, rec)
    return traced


def _untimed_finish(fn, rec, vm):
    def traced():
        _end_run(vm, rec, perf_counter())
        fn()
        _run_totals(vm, rec)
    return traced


_FACTORIES = (_plain, _batch, _per_decision, _search, _probe, _capture,
              _collect, _end_run, _run_totals, _allocate, _finish,
              _untimed_finish)
_INTERNAL_GLOBALS = {"__name__": "repro.runtime.perfbench_probe",
                     "__builtins__": __builtins__,
                     "perf_counter": perf_counter}
for _factory in _FACTORIES:
    _INTERNAL_GLOBALS[_factory.__name__] = types.FunctionType(
        _factory.__code__, _INTERNAL_GLOBALS, _factory.__name__,
        _factory.__defaults__)
del _factory

_MODULE_FACTORIES = {
    "rules.evaluate": "_batch",
    "rules.evaluate_context": "_per_decision",
    "analysis.minheap.search": "_search",
    "analysis.minheap.probe": "_probe",
}


def _internal(factory_name: str):
    return _INTERNAL_GLOBALS[factory_name]


# ----------------------------------------------------------------------
# Installation (one state per process)
# ----------------------------------------------------------------------
class _State:
    def __init__(self) -> None:
        self.rec = Recorder()
        self.enabled: FrozenSet[str] = frozenset()
        self.originals: Dict[str, tuple] = {}
        self.hook = None


_STATE = _State()


def recorder() -> Recorder:
    """This process's recorder."""
    return _STATE.rec


def span(name: str):
    """A span around a call the benchmark makes itself (a no-op while
    nothing is traced)."""
    if not _STATE.enabled:
        return contextlib.nullcontext()
    return _Span(_STATE.rec, name)


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _on_vm_created(vm) -> None:
    from repro.collections.wrappers import ChameleonCollection
    from repro.memory.heap import OutOfMemoryError

    rec = _STATE.rec
    enabled = _STATE.enabled
    sid = parent = None
    if "workloads.run" in enabled:
        sid, parent = rec.open()
    # Keyed by the clock, which the entry keeps alive, so the key cannot
    # be reused by a later VM while the entry is open.
    rec.open_runs[id(vm.clock)] = (sid, perf_counter(), parent, vm.clock,
                                   vm.profiling_enabled)
    if "runtime.allocate" in enabled:
        vm.allocate = _internal("_allocate")(
            "runtime.allocate", vm.allocate, rec, vm, OutOfMemoryError,
            ChameleonCollection)
    if "runtime.capture" in enabled:
        vm.capture_allocation_context = _internal("_capture")(
            "runtime.capture", vm.capture_allocation_context, rec)
    if "runtime.choose_implementation" in enabled:
        vm.choose_implementation = _internal("_plain")(
            "runtime.choose_implementation", vm.choose_implementation, rec)
    if "memory.gc.collect" in enabled:
        vm.gc.collect = _internal("_collect")(
            "memory.gc.collect", vm.gc.collect, rec)
    if "runtime.finish" in enabled:
        vm.finish = _internal("_finish")("runtime.finish", vm.finish,
                                         rec, vm)
    else:
        vm.finish = _internal("_untimed_finish")(vm.finish, rec, vm)


def install(enabled: Iterable[str]) -> None:
    """Make this process's wrappers match ``enabled`` (idempotent)."""
    enabled = frozenset(enabled)
    unknown = enabled - set(ALL_BOUNDARIES)
    if unknown:
        raise ValueError(f"unknown boundaries: {sorted(unknown)}")
    if enabled == _STATE.enabled:
        return
    uninstall()
    from repro.runtime.vm import add_vm_created_hook

    rec = _STATE.rec
    for name in sorted(enabled & set(MODULE_BOUNDARIES)):
        owner, attr = _resolve(*MODULE_BOUNDARIES[name])
        original = getattr(owner, attr)
        factory = _internal(_MODULE_FACTORIES.get(name, "_plain"))
        setattr(owner, attr, factory(name, original, rec))
        _STATE.originals[name] = (owner, attr, original)
    if SCHEDULER_BOUNDARY in enabled:
        from repro.analysis import scheduler

        add_original = scheduler.JobGraph.add
        run_original = scheduler.Scheduler.run

        def add(graph, job_id, fn, *args, **kwargs):
            return add_original(graph, job_id,
                                TracedJob(fn, _STATE.enabled,
                                          _STATE.rec.unit),
                                *args, **kwargs)

        def run(scheduler_self, graph):
            with span("analysis.scheduler.run") as run_span:
                results = run_original(scheduler_self, graph)
            return _unpack(results, run_span.sid)

        scheduler.JobGraph.add = add
        scheduler.Scheduler.run = run
        _STATE.originals[SCHEDULER_BOUNDARY + ".add"] = (
            scheduler.JobGraph, "add", add_original)
        _STATE.originals[SCHEDULER_BOUNDARY + ".run"] = (
            scheduler.Scheduler, "run", run_original)
    if enabled:
        # The hook runs while anything is traced: it folds each run's
        # end counters (ticks, heap and GC totals) into the recorder,
        # which the fidelity guard compares against.
        _STATE.hook = _on_vm_created
        add_vm_created_hook(_on_vm_created)
    _STATE.enabled = enabled


def uninstall() -> None:
    """Restore every wrapped attribute and remove the VM hook."""
    from repro.runtime.vm import remove_vm_created_hook

    for owner, attr, original in _STATE.originals.values():
        setattr(owner, attr, original)
    _STATE.originals.clear()
    if _STATE.hook is not None:
        remove_vm_created_hook(_STATE.hook)
        _STATE.hook = None
    _STATE.enabled = frozenset()


def flush_open_runs() -> None:
    """Count the ticks of runs that never reached ``finish`` (they ran
    out of memory while ``runtime.allocate`` was not wrapped)."""
    rec = _STATE.rec
    for sid, _start, _parent, clock, profiling in rec.open_runs.values():
        if sid is not None and sid in rec.stack:
            rec.stack.remove(sid)
        rec.counts["runtime.sim_ticks"] += clock.now
        if not profiling:
            rec.counts["runtime.sim_ticks.unprofiled"] += clock.now
    rec.open_runs.clear()


# ----------------------------------------------------------------------
# Scheduler jobs
# ----------------------------------------------------------------------
class TracedResult:
    """A job's result plus what its worker recorded.

    Unpickling in the parent stamps the arrival time.
    """

    def __init__(self, result, spans, counts, job) -> None:
        self.result = result
        self.spans = spans
        self.counts = counts
        self.job = job

    def __reduce__(self):
        return (_arrive, (self.result, self.spans, self.counts, self.job))


def _arrive(result, spans, counts, job) -> TracedResult:
    job["arrival"] = perf_counter()
    return TracedResult(result, spans, counts, job)


def _sent(fn, enabled, unit, sent) -> "TracedJob":
    job = TracedJob(fn, enabled, unit)
    job.sent = sent
    return job


class TracedJob:
    """A scheduler job function that traces itself where it runs.

    Pickling (which the pool does when it sends the job) stamps the send
    time; the worker measures queue wait, wall and CPU around the call,
    and separately times pickling the job's arguments and result.
    """

    def __init__(self, fn, enabled, unit) -> None:
        self.fn = fn
        self.enabled = frozenset(enabled)
        self.unit = unit
        self.sent: Optional[float] = None

    def __reduce__(self):
        return (_sent, (self.fn, self.enabled, self.unit, perf_counter()))

    def __call__(self, *args, **kwargs):
        started = perf_counter()
        rec = _STATE.rec
        previous = _STATE.enabled
        saved = (rec.spans, rec.stack, rec.root, rec.unit, rec.counts,
                 rec.jobs, rec.open_runs)
        rec.reset(root=None, unit=self.unit)
        install(self.enabled)
        try:
            pickle_start = perf_counter()
            arg_bytes = len(pickle.dumps((self.fn, args, kwargs),
                                         protocol=pickle.HIGHEST_PROTOCOL))
            arg_pickle = perf_counter() - pickle_start
            with span(SCHEDULER_BOUNDARY):
                cpu_start = process_time()
                wall_start = perf_counter()
                result = self.fn(*args, **kwargs)
                wall = perf_counter() - wall_start
                cpu = process_time() - cpu_start
            pickle_start = perf_counter()
            result_bytes = len(pickle.dumps(
                result, protocol=pickle.HIGHEST_PROTOCOL))
            result_pickle = perf_counter() - pickle_start
            flush_open_runs()
            spans, counts = rec.spans, rec.counts
        finally:
            install(previous)
            (rec.spans, rec.stack, rec.root, rec.unit, rec.counts,
             rec.jobs, rec.open_runs) = saved
        # Everything this wrapper did besides the call itself.
        traced_work = (perf_counter() - started) - wall
        job = {"pid": os.getpid(), "sent": self.sent, "start": started,
               "wall": wall, "cpu": cpu,
               "pickle_s": arg_pickle + result_pickle,
               "pickle_bytes": arg_bytes + result_bytes,
               "traced_work": traced_work, "arrival": None}
        return TracedResult(result, spans, counts, job)


def _unpack(results: Dict[str, object], run_sid) -> Dict[str, object]:
    """Strip :class:`TracedResult` wrappers, adopting their spans."""
    rec = _STATE.rec
    out = {}
    for job_id, value in results.items():
        if isinstance(value, TracedResult):
            rec.spans.extend(
                span if span[4] is not None
                else span[:4] + (run_sid,) + span[5:]
                for span in value.spans)
            rec.counts.update(value.counts)
            rec.jobs.append(value.job)
            value = value.result
        out[job_id] = value
    return out
