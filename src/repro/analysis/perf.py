"""Wall-clock perf-regression harness (``benchmarks/perf/``).

The virtual clock makes the *simulated* running-time results exact, but
the simulator itself must also run "as fast as the hardware allows" --
and nothing so far measured that.  This module is the repo's perf
trajectory: a small suite of wall-clock micro-benchmarks over the two
workloads the paper's overhead analysis singles out (TVLA: op-dense;
PMD: allocation-dense), each run with allocation-context capture on and
off, plus a GC-heavy configuration that stresses mark/account/sweep.

Results are emitted as ``BENCH_chameleon.json`` with a stable,
CI-comparable schema (:data:`SCHEMA`, :data:`SCHEMA_VERSION`); CI runs a
smoke pass and fails on a schema-invalid document, and
``history --ingest`` plus ``perf --gate`` track the trajectory across
documents (:mod:`repro.analysis.index`).

Wall-clock numbers are machine-dependent; the schema therefore records
the interpreter and the per-phase split (setup / run / finish / report)
so a regression can be localised, and comparisons should always be
between documents produced on the same machine.

Measurement hygiene: every measured repeat starts after a
``gc.collect()`` and runs with CPython's cyclic collector paused by
:func:`~repro.runtime.host_gc.host_collector_paused`, the helper the run
drivers own: ``profile``, ``plain_run`` and the online driver pause the
collector for each run themselves, so this harness and the repo
benchmark (``perfbench/``) time the same program.  A host collection
landing inside one repeat but not another would otherwise be the
dominant single-machine variance source for these sub-second runs.
Since v4 the suite reports the *median* repeat (plus every repeat's wall
in ``repeat_walls``) instead of the minimum -- the minimum
systematically rewards the repeat that dodged the most machine noise,
while the median tracks what a user actually observes.

The pause costs no memory because the simulator leaves nothing to the
cyclic collector (DESIGN.md sections 3.5 and 3.6): the sweep releases a
dead object's payload, so swept collections die by reference counting,
and the run drivers release a finished VM, so a dropped run does too.
"""

from __future__ import annotations

import gc as _pygc
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.profiler.report import build_report
from repro.runtime.host_gc import host_collector_paused
from repro.runtime.vm import RuntimeEnvironment
from repro.workloads import default_workload_registry

__all__ = ["SCHEMA", "SCHEMA_VERSION", "BenchRecord", "median_index",
           "run_suite", "run_suite_section", "validate_document",
           "render_summary"]

SCHEMA = "chameleon-perf"
#: v2 adds the optional top-level ``suite`` section: serial-vs-parallel
#: wall time for the Fig. 6 + Fig. 7 pair plus session-cache hit counts.
#: v3 adds the optional ``suite.overhead`` breakdown (per-job spawn /
#: worker / transfer / merge seconds from the persistent worker pool)
#: and the ``gc_mark_heavy`` synthetic benchmark.  Older documents
#: (no ``suite`` key, or a ``suite`` without ``overhead``) remain valid.
#: ``suite.overhead.queue_wait_seconds`` (the queue wait within
#: transfer) is optional within v3.
#: v4 switches aggregation from best-of-repeats to median-of-repeats
#: (recording every repeat in the new per-record ``repeat_walls`` list),
#: adds the ``op_dispatch_heavy`` synthetic benchmark, and adds the
#: optional top-level ``vm_cores`` section, which only documents written
#: while the operation pipeline had a user-selectable reference variant
#: carry; it is still validated so those documents load.
SCHEMA_VERSION = 4

#: The default workload pair: the section 5.4 extremes.
DEFAULT_WORKLOADS = ("tvla", "pmd")

#: Phase names every benchmark record reports (missing phases are 0.0).
PHASES = ("setup", "run", "finish", "report")


@dataclass
class BenchRecord:
    """One benchmark's measurements.

    ``wall_seconds`` is the *median* repeat (v4+; earlier versions
    recorded the minimum), ``repeat_walls`` every repeat's total in run
    order, and ``phases`` the per-phase split of the median repeat.
    """

    name: str
    workload: str
    capture: bool
    repeats: int
    wall_seconds: float
    phases: Dict[str, float] = field(default_factory=dict)
    ticks: int = 0
    gc_cycles: int = 0
    allocated_objects: int = 0
    repeat_walls: List[float] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "workload": self.workload,
            "capture": self.capture,
            "repeats": self.repeats,
            "wall_seconds": self.wall_seconds,
            "phases": dict(self.phases),
            "ticks": self.ticks,
            "gc_cycles": self.gc_cycles,
            "allocated_objects": self.allocated_objects,
            "repeat_walls": list(self.repeat_walls),
        }


def median_index(walls: List[float]) -> int:
    """Index (into ``walls``) of the median repeat: the lower-middle
    element of the sorted totals, so the reported wall and phase split
    always come from one actual run rather than an average of two."""
    order = sorted(range(len(walls)), key=walls.__getitem__)
    return order[(len(order) - 1) // 2]


def _phase_timed(fn: Callable[[], None], phases: Dict[str, float],
                 name: str) -> None:
    start = time.perf_counter()
    fn()
    phases[name] = phases.get(name, 0.0) + time.perf_counter() - start


def _run_once(tool: Chameleon, workload_name: str, scale: float, seed: int,
              capture: bool,
              gc_threshold_bytes: Optional[int] = None,
              ) -> Tuple[Dict[str, float], RuntimeEnvironment]:
    """One measured run; returns per-phase wall times and the VM."""
    registry = default_workload_registry()
    phases: Dict[str, float] = {name: 0.0 for name in PHASES}
    holder: dict = {}

    def setup() -> None:
        workload = registry.create(workload_name, seed=seed, scale=scale)
        profiler = tool._make_profiler() if capture else None
        vm = tool.make_vm(profiler=profiler)
        if gc_threshold_bytes is not None:
            vm.gc_threshold_bytes = gc_threshold_bytes
        holder["vm"] = vm
        holder["workload"] = workload

    _pygc.collect()
    with host_collector_paused():
        _phase_timed(setup, phases, "setup")
        vm = holder["vm"]
        workload = holder["workload"]
        _phase_timed(lambda: workload.run(vm), phases, "run")
        _phase_timed(vm.finish, phases, "finish")
        if capture:
            def report() -> None:
                profile_report = build_report(vm.profiler, vm.timeline,
                                              vm.contexts)
                tool.engine.evaluate(profile_report)

            _phase_timed(report, phases, "report")
    return phases, vm


def _bench(name: str, tool: Chameleon, workload_name: str, scale: float,
           seed: int, repeats: int, capture: bool,
           gc_threshold_bytes: Optional[int] = None) -> BenchRecord:
    walls: List[float] = []
    all_phases: List[Dict[str, float]] = []
    vm = None
    for _ in range(max(repeats, 1)):
        phases, vm = _run_once(tool, workload_name, scale, seed, capture,
                               gc_threshold_bytes=gc_threshold_bytes)
        all_phases.append(phases)
        walls.append(sum(phases.values()))
    median = median_index(walls)
    return BenchRecord(
        name=name,
        workload=workload_name,
        capture=capture,
        repeats=max(repeats, 1),
        wall_seconds=walls[median],
        phases=all_phases[median],
        ticks=vm.now,
        gc_cycles=vm.timeline.cycle_count,
        allocated_objects=vm.heap.total_allocated_objects,
        repeat_walls=walls,
    )


def _build_mark_heavy_heap(seed: int, scale: float):
    """Synthetic object graph that stresses the mark closure.

    Three shapes, each the worst case for a different part of the loop:
    a *deep* chain (maximum frontier rounds), a *wide* fan-out (maximum
    single-round frontier), and a *cyclic* ring with random chords
    (revisit pressure on the marked-set membership test).  A slab of
    unreachable objects gives the sweeper real work too.
    """
    import random

    from repro.memory.heap import SimHeap

    rng = random.Random(seed)
    heap = SimHeap()
    n = max(200, int(6000 * scale))

    chain = [heap.allocate("Deep", 16) for _ in range(n)]
    for parent, child in zip(chain, chain[1:]):
        parent.add_ref(child.obj_id)
    heap.add_root(chain[0])

    hub = heap.allocate("Hub", 16)
    heap.add_root(hub)
    for _ in range(n):
        hub.add_ref(heap.allocate("Wide", 16).obj_id)

    ring = [heap.allocate("Ring", 16) for _ in range(n)]
    for position, obj in enumerate(ring):
        obj.add_ref(ring[(position + 1) % n].obj_id)
    for _ in range(n // 4):
        ring[rng.randrange(n)].add_ref(ring[rng.randrange(n)].obj_id)
    heap.add_root(ring[0])

    for _ in range(n // 2):
        heap.allocate("Garbage", 16)
    return heap


def _bench_gc_mark_heavy(scale: float, seed: int, repeats: int,
                         cycles: int = 8,
                         collector: Optional[Callable[..., Any]] = None,
                         ) -> BenchRecord:
    """Mark-loop microbenchmark over the synthetic heap shapes.

    Runs ``cycles`` back-to-back collections on the graph from
    :func:`_build_mark_heavy_heap` (with a little churn between cycles
    so every cycle re-marks), charging into a plain counter.
    ``collector`` builds the collector (default
    :class:`~repro.memory.gc.MarkSweepGC`); the recorded ticks are pure
    counts, so any faithful collector reports the same ones.
    """
    from repro.memory.gc import MarkSweepGC

    collector = collector or MarkSweepGC
    walls: List[float] = []
    ticks = 0
    allocated = 0
    for _ in range(max(repeats, 1)):
        heap = _build_mark_heavy_heap(seed, scale)
        charged: List[int] = []
        gc = collector(heap, charge=charged.append)
        _pygc.collect()
        with host_collector_paused():
            start = time.perf_counter()
            for cycle in range(cycles):
                gc.collect(tick=cycle)
                for _ in range(64):
                    heap.allocate("Churn", 16)
            walls.append(time.perf_counter() - start)
        ticks = sum(charged)
        allocated = heap.total_allocated_objects
    wall = walls[median_index(walls)]
    phases = {name: 0.0 for name in PHASES}
    phases["run"] = wall
    return BenchRecord(
        name="gc_mark_heavy",
        workload="synthetic",
        capture=False,
        repeats=max(repeats, 1),
        wall_seconds=wall,
        phases=phases,
        ticks=ticks,
        gc_cycles=cycles,
        allocated_objects=allocated,
        repeat_walls=walls,
    )


def _bench_op_dispatch_heavy(scale: float, repeats: int,
                             make_vm: Optional[Callable[..., Any]] = None,
                             ) -> BenchRecord:
    """Operation-dispatch microbenchmark: read-dense wrapper traffic.

    A handful of long-lived collections take a large burst of O(1)
    recorded operations (list get/size/is_empty, map get/contains_key)
    under profiling, so the per-operation pipeline -- tick charge, op
    counter, size watermark, impl dispatch -- dominates the wall clock
    instead of allocation or impl work.  ``make_vm`` builds the VM from a
    ``profiler`` keyword (default: the default tool's ``make_vm``); the
    recorded ticks are the same on any faithful op pipeline.
    """
    from repro.collections.wrappers import ChameleonList, ChameleonMap

    n_ops = max(1000, int(160_000 * scale))
    tool = Chameleon(ToolConfig())
    make_vm = make_vm or tool.make_vm
    walls: List[float] = []
    vm = None
    for _ in range(max(repeats, 1)):
        vm = make_vm(profiler=tool._make_profiler())
        _pygc.collect()
        with host_collector_paused():
            start = time.perf_counter()
            lst = ChameleonList(vm)
            mapping = ChameleonMap(vm)
            for i in range(64):
                lst.add(i)
                mapping.put(i, i)
            for i in range(n_ops):
                lst.get(i & 63)
                lst.size()
                lst.is_empty()
                mapping.get(i & 63)
                mapping.contains_key(i & 63)
                lst.get((i + 7) & 63)
            vm.finish()
            walls.append(time.perf_counter() - start)
    wall = walls[median_index(walls)]
    phases = {name: 0.0 for name in PHASES}
    phases["run"] = wall
    return BenchRecord(
        name="op_dispatch_heavy",
        workload="synthetic",
        capture=True,
        repeats=max(repeats, 1),
        wall_seconds=wall,
        phases=phases,
        ticks=vm.now,
        gc_cycles=vm.timeline.cycle_count,
        allocated_objects=vm.heap.total_allocated_objects,
        repeat_walls=walls,
    )


def run_suite_section(scale: float = 0.1, resolution: int = 16384,
                      jobs: int = 2) -> dict:
    """Measure the experiment-scheduler trajectory: the Fig. 6 + Fig. 7
    pair, serial (``jobs=1``, the reference path) versus fan-out on a
    ``jobs``-worker process pool, from a cold session cache each time.

    Returns the document's ``suite`` section: both wall times, the
    speedup, the serial pass's session-cache hit counts, the parallel
    pass's pool-overhead breakdown (spawn / worker / transfer / queue
    wait / merge seconds from
    :class:`~repro.analysis.scheduler.SchedulerStats`), and
    whether the two rendered reports were byte-identical (the
    scheduler's determinism contract, asserted here on every perf run).

    The parallel pass shares sessions through a content-addressed
    :class:`~repro.analysis.index.SessionStore` in a temporary
    directory: workers are warmed up with it at pool creation, so each
    session crosses the process boundary once as a file instead of
    being re-pickled through every result queue.
    """
    import tempfile

    from repro.analysis import experiments
    from repro.analysis.scheduler import Scheduler

    experiments.reset_session_cache()
    start = time.perf_counter()
    serial = (experiments.run_fig6(scale=scale, resolution=resolution),
              experiments.run_fig7(scale=scale, resolution=resolution))
    serial_seconds = time.perf_counter() - start
    cache = experiments.get_session_cache()
    cache_hits, cache_misses = cache.hits, cache.misses

    experiments.reset_session_cache()
    with tempfile.TemporaryDirectory(prefix="chameleon-suite-") as store_dir:
        experiments.attach_session_store(store_dir)
        try:
            with Scheduler(jobs=jobs,
                           warmup=(experiments.warm_worker, (store_dir,)),
                           ) as scheduler:
                start = time.perf_counter()
                parallel = (
                    experiments.run_fig6(scale=scale, resolution=resolution,
                                         scheduler=scheduler),
                    experiments.run_fig7(scale=scale, resolution=resolution,
                                         scheduler=scheduler))
                parallel_seconds = time.perf_counter() - start
                overhead = scheduler.stats.as_dict()
        finally:
            experiments.attach_session_store(None)

    identical = all(s.render() == p.render()
                    for s, p in zip(serial, parallel))
    return {
        "scale": scale,
        "resolution": resolution,
        "jobs": jobs,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": (serial_seconds / parallel_seconds
                    if parallel_seconds else 0.0),
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "identical": identical,
        "overhead": overhead,
    }


def run_suite(scale: float = 0.2, repeats: int = 3, seed: int = 2009,
              workloads: Tuple[str, ...] = DEFAULT_WORKLOADS,
              include_gc_heavy: bool = True,
              suite_jobs: Optional[int] = None,
              suite_scale: float = 0.1,
              suite_resolution: int = 16384) -> dict:
    """Run the full suite; returns the ``BENCH_chameleon.json`` document.

    Args:
        scale: Workload scale factor for every benchmark.
        repeats: Runs per benchmark; the median total is reported and
            every repeat recorded.
        seed: Workload RNG seed.
        workloads: Registry names to measure capture-on/off.
        include_gc_heavy: Also run a small-GC-threshold configuration
            that multiplies collection cycles (stressing mark/account/
            sweep rather than the allocation path).
        suite_jobs: When set, also measure the experiment-scheduler
            section (:func:`run_suite_section`) at this parallelism (2 or
            more: it compares serial against a pool) and record it under
            the document's ``suite`` key.
        suite_scale: Workload scale for the scheduler section.
        suite_resolution: Min-heap search resolution for the scheduler
            section.
    """
    tool = Chameleon(ToolConfig())
    records: List[BenchRecord] = []
    for workload_name in workloads:
        for capture in (True, False):
            suffix = "capture_on" if capture else "capture_off"
            records.append(_bench(f"{workload_name}_{suffix}", tool,
                                  workload_name, scale, seed, repeats,
                                  capture))
    if include_gc_heavy:
        records.append(_bench("gc_heavy", tool, workloads[0], scale, seed,
                              repeats, capture=False,
                              gc_threshold_bytes=16 * 1024))
        records.append(_bench_gc_mark_heavy(scale, seed, repeats))
        records.append(_bench_op_dispatch_heavy(scale, repeats))
    doc = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "python": sys.version.split()[0],
        "generated_at": time.time(),
        "scale": scale,
        "seed": seed,
        "repeats": max(repeats, 1),
        "benchmarks": [record.to_dict() for record in records],
    }
    if suite_jobs is not None:
        doc["suite"] = run_suite_section(scale=suite_scale,
                                         resolution=suite_resolution,
                                         jobs=suite_jobs)
    return doc


# ----------------------------------------------------------------------
# Schema validation (what CI smoke-checks)
# ----------------------------------------------------------------------
_TOP_LEVEL_FIELDS = {
    "schema": str,
    "schema_version": int,
    "python": str,
    "generated_at": (int, float),
    "scale": (int, float),
    "seed": int,
    "repeats": int,
    "benchmarks": list,
}

_RECORD_FIELDS = {
    "name": str,
    "workload": str,
    "capture": bool,
    "repeats": int,
    "wall_seconds": (int, float),
    "phases": dict,
    "ticks": int,
    "gc_cycles": int,
    "allocated_objects": int,
}

#: Schema of the optional (v4) top-level ``vm_cores`` section.
_VM_CORES_FIELDS = {
    "scale": (int, float),
    "seed": int,
    "repeats": int,
    "cpu_count": int,
    "benchmarks": dict,
}

#: Schema of each entry in ``vm_cores.benchmarks``.
_VM_CORES_BENCH_FIELDS = {
    "reference_wall": (int, float),
    "fast_wall": (int, float),
    "speedup": (int, float),
    "ticks": int,
    "ticks_identical": bool,
}

#: Schema of the optional (v2+) top-level ``suite`` section.
_SUITE_FIELDS = {
    "scale": (int, float),
    "resolution": int,
    "jobs": int,
    "serial_seconds": (int, float),
    "parallel_seconds": (int, float),
    "speedup": (int, float),
    "cache_hits": int,
    "cache_misses": int,
    "identical": bool,
}

#: Schema of the optional (v3+) ``suite.overhead`` breakdown.  Mirrors
#: :meth:`repro.analysis.scheduler.SchedulerStats.as_dict`.
_OVERHEAD_FIELDS = {
    "jobs_executed": int,
    "spawn_seconds": (int, float),
    "worker_seconds": (int, float),
    "transfer_seconds": (int, float),
    "merge_seconds": (int, float),
}

#: ``suite.overhead`` fields checked when present: documents written
#: before the scheduler measured queue wait stay valid without them.
_OPTIONAL_OVERHEAD_FIELDS = {
    "queue_wait_seconds": (int, float),
}


def validate_document(doc: object) -> None:
    """Raise ``ValueError`` describing every way ``doc`` violates the
    ``BENCH_chameleon.json`` schema; return silently when valid."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        raise ValueError("BENCH document must be a JSON object")
    for key, expected in _TOP_LEVEL_FIELDS.items():
        if key not in doc:
            problems.append(f"missing top-level field {key!r}")
        elif not isinstance(doc[key], expected):
            problems.append(f"field {key!r} has type "
                            f"{type(doc[key]).__name__}")
    if doc.get("schema") not in (None, SCHEMA):
        problems.append(f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if isinstance(doc.get("schema_version"), int) \
            and doc["schema_version"] > SCHEMA_VERSION:
        problems.append(f"schema_version {doc['schema_version']} is newer "
                        f"than supported {SCHEMA_VERSION}")
    seen = set()
    for position, record in enumerate(doc.get("benchmarks") or []):
        if not isinstance(record, dict):
            problems.append(f"benchmarks[{position}] is not an object")
            continue
        label = record.get("name", f"#{position}")
        for key, expected in _RECORD_FIELDS.items():
            if key not in record:
                problems.append(f"benchmark {label}: missing field {key!r}")
            elif not isinstance(record[key], expected) \
                    or (expected is int and isinstance(record[key], bool)):
                problems.append(f"benchmark {label}: field {key!r} has "
                                f"type {type(record[key]).__name__}")
        if isinstance(record.get("wall_seconds"), (int, float)) \
                and record["wall_seconds"] < 0:
            problems.append(f"benchmark {label}: negative wall_seconds")
        if isinstance(record.get("phases"), dict):
            for phase, seconds in record["phases"].items():
                if not isinstance(seconds, (int, float)) or seconds < 0:
                    problems.append(f"benchmark {label}: phase {phase!r} "
                                    f"is not a non-negative number")
        walls = record.get("repeat_walls")
        if walls is not None:
            # Optional list (schema v4+): v3 records without it stay
            # valid.
            if not isinstance(walls, list) \
                    or any(not isinstance(w, (int, float)) or w < 0
                           for w in walls):
                problems.append(f"benchmark {label}: repeat_walls is not "
                                f"a list of non-negative numbers")
        name = record.get("name")
        if name in seen:
            problems.append(f"duplicate benchmark name {name!r}")
        seen.add(name)
    if not doc.get("benchmarks"):
        problems.append("benchmarks list is empty")
    suite = doc.get("suite")
    if suite is not None:
        # Optional section (schema v2+): absent in v1 documents, which
        # therefore stay valid.
        if not isinstance(suite, dict):
            problems.append("suite section is not an object")
        else:
            for key, expected in _SUITE_FIELDS.items():
                if key not in suite:
                    problems.append(f"suite: missing field {key!r}")
                elif not isinstance(suite[key], expected) \
                        or (expected is int and isinstance(suite[key],
                                                           bool)):
                    problems.append(f"suite: field {key!r} has type "
                                    f"{type(suite[key]).__name__}")
            overhead = suite.get("overhead")
            if overhead is not None:
                # Optional breakdown (schema v3+): v2 suites without it
                # stay valid.
                if not isinstance(overhead, dict):
                    problems.append("suite.overhead is not an object")
                else:
                    for key, expected in {
                            **_OVERHEAD_FIELDS,
                            **_OPTIONAL_OVERHEAD_FIELDS}.items():
                        if key not in overhead:
                            if key in _OVERHEAD_FIELDS:
                                problems.append(
                                    f"suite.overhead: missing field "
                                    f"{key!r}")
                        elif not isinstance(overhead[key], expected) \
                                or (expected is int
                                    and isinstance(overhead[key], bool)):
                            problems.append(
                                f"suite.overhead: field {key!r} has type "
                                f"{type(overhead[key]).__name__}")
                        elif overhead[key] < 0:
                            problems.append(
                                f"suite.overhead: field {key!r} is "
                                f"negative")
    vm_cores = doc.get("vm_cores")
    if vm_cores is not None:
        # Optional section that only older v4 documents carry; the
        # harness no longer writes it.
        if not isinstance(vm_cores, dict):
            problems.append("vm_cores section is not an object")
        else:
            for key, expected in _VM_CORES_FIELDS.items():
                if key not in vm_cores:
                    problems.append(f"vm_cores: missing field {key!r}")
                elif not isinstance(vm_cores[key], expected) \
                        or (expected is int
                            and isinstance(vm_cores[key], bool)):
                    problems.append(f"vm_cores: field {key!r} has type "
                                    f"{type(vm_cores[key]).__name__}")
            for name, entry in (vm_cores.get("benchmarks") or {}).items():
                if not isinstance(entry, dict):
                    problems.append(f"vm_cores benchmark {name!r} is not "
                                    f"an object")
                    continue
                for key, expected in _VM_CORES_BENCH_FIELDS.items():
                    if key not in entry:
                        problems.append(f"vm_cores benchmark {name!r}: "
                                        f"missing field {key!r}")
                    elif not isinstance(entry[key], expected) \
                            or (expected is int
                                and isinstance(entry[key], bool)):
                        problems.append(
                            f"vm_cores benchmark {name!r}: field {key!r} "
                            f"has type {type(entry[key]).__name__}")
    if problems:
        raise ValueError("invalid BENCH document: " + "; ".join(problems))


def render_summary(doc: dict) -> str:
    """Human-readable table of a BENCH document."""
    lines = [f"perf suite (scale={doc['scale']}, repeats={doc['repeats']}, "
             f"python {doc['python']})",
             f"{'benchmark':<20} {'wall s':>9} {'run s':>9} {'ticks':>12} "
             f"{'GCs':>5} {'allocs':>9}"]
    for record in doc["benchmarks"]:
        lines.append(
            f"{record['name']:<20} {record['wall_seconds']:>9.4f} "
            f"{record['phases'].get('run', 0.0):>9.4f} "
            f"{record['ticks']:>12} {record['gc_cycles']:>5} "
            f"{record['allocated_objects']:>9}")
    suite = doc.get("suite")
    if suite is not None:
        lines.append(
            f"suite (fig6+fig7, scale={suite['scale']}, "
            f"jobs={suite['jobs']}): serial {suite['serial_seconds']:.2f}s, "
            f"parallel {suite['parallel_seconds']:.2f}s "
            f"({suite['speedup']:.2f}x), session cache "
            f"{suite['cache_hits']} hits / {suite['cache_misses']} misses, "
            f"results {'identical' if suite['identical'] else 'DIVERGED'}")
        overhead = suite.get("overhead")
        if overhead is not None:
            lines.append(
                f"  pool overhead ({overhead['jobs_executed']} jobs): "
                f"spawn {overhead['spawn_seconds']:.3f}s, "
                f"worker {overhead['worker_seconds']:.2f}s, "
                f"transfer {overhead['transfer_seconds']:.3f}s"
                + (f" (queue wait {overhead['queue_wait_seconds']:.3f}s)"
                   if "queue_wait_seconds" in overhead else "")
                + f", merge {overhead['merge_seconds']:.3f}s")
    return "\n".join(lines)


def write_document(doc: dict, path: str) -> None:
    """Validate and write ``doc`` to ``path`` as pretty-printed JSON."""
    validate_document(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_document(path: str) -> dict:
    """Load and validate a BENCH document from ``path``."""
    with open(path) as handle:
        doc = json.load(handle)
    validate_document(doc)
    return doc
