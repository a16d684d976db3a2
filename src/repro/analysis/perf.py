"""Tick golden of the simulator's microbenchmarks (``benchmarks/perf/``).

The virtual clock makes the *simulated* running-time results exact.
This module pins them on seven microbenchmarks: the two workloads the
paper's overhead analysis singles out (TVLA: op-dense; PMD:
allocation-dense), each run with allocation-context capture on and off,
a GC-heavy configuration that stresses mark/account/sweep, and two
synthetic loads, one on the mark loop and one on operation dispatch.
Each runs once at :data:`SCALE` and :data:`SEED` and records its ticks,
GC cycles and allocated objects.

The result is ``BENCH_chameleon.json`` (:data:`SCHEMA`,
:data:`SCHEMA_VERSION`).  It holds no wall clock, timestamp or
interpreter field, so regenerating it at an unchanged commit gives an
identical file; the tests compare the committed document with a fresh
one byte for byte.  Wall-clock speed is measured by the repository
benchmark (``perfbench/``), not here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, List, Optional

from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.runtime.vm import RuntimeEnvironment
from repro.workloads import default_workload_registry

__all__ = ["SCHEMA", "SCHEMA_VERSION", "SCALE", "SEED", "BenchRecord",
           "run_suite", "validate_document", "render_summary",
           "write_document", "load_document"]

SCHEMA = "chameleon-perf"
#: v5 keeps only the simulated counts: v4's wall clocks, phase splits,
#: repeat lists, timestamp, interpreter and the optional ``suite`` and
#: ``vm_cores`` sections are gone.
SCHEMA_VERSION = 5

#: Workload scale and seed of every benchmark.
SCALE = 0.05
SEED = 2009

#: The workload pair measured capture-on and capture-off: the section
#: 5.4 extremes.
WORKLOADS = ("tvla", "pmd")


@dataclass
class BenchRecord:
    """One benchmark's simulated counts."""

    name: str
    workload: str
    capture: bool
    ticks: int
    gc_cycles: int
    allocated_objects: int

    @classmethod
    def of_vm(cls, name: str, workload: str, capture: bool,
              vm: RuntimeEnvironment) -> "BenchRecord":
        return cls(name=name, workload=workload, capture=capture,
                   ticks=vm.now, gc_cycles=vm.timeline.cycle_count,
                   allocated_objects=vm.heap.total_allocated_objects)

    def to_dict(self) -> dict:
        return asdict(self)


def _bench(name: str, tool: Chameleon, workload_name: str, capture: bool,
           gc_threshold_bytes: Optional[int] = None) -> BenchRecord:
    """One run of a registry workload, profiled when ``capture``.

    The VM is built here rather than by ``Chameleon.profile``, which
    charges TVLA 300 ticks more than this run and would move the golden.
    """
    workload = default_workload_registry().create(
        workload_name, seed=SEED, scale=SCALE)
    vm = tool.make_vm(profiler=tool._make_profiler() if capture else None)
    if gc_threshold_bytes is not None:
        vm.gc_threshold_bytes = gc_threshold_bytes
    workload.run(vm)
    vm.finish()
    return BenchRecord.of_vm(name, workload_name, capture, vm)


def _build_mark_heavy_heap():
    """Synthetic object graph that stresses the mark closure.

    Three shapes, each the worst case for a different part of the loop:
    a *deep* chain (maximum frontier rounds), a *wide* fan-out (maximum
    single-round frontier), and a *cyclic* ring with random chords
    (revisit pressure on the marked-set membership test).  A slab of
    unreachable objects gives the sweeper real work too.
    """
    import random

    from repro.memory.heap import SimHeap

    rng = random.Random(SEED)
    heap = SimHeap()
    n = max(200, int(6000 * SCALE))

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


def _bench_gc_mark_heavy(cycles: int = 8,
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

    heap = _build_mark_heavy_heap()
    charged: List[int] = []
    gc = (collector or MarkSweepGC)(heap, charge=charged.append)
    for cycle in range(cycles):
        gc.collect(tick=cycle)
        for _ in range(64):
            heap.allocate("Churn", 16)
    return BenchRecord(name="gc_mark_heavy", workload="synthetic",
                       capture=False, ticks=sum(charged), gc_cycles=cycles,
                       allocated_objects=heap.total_allocated_objects)


def _bench_op_dispatch_heavy(make_vm: Optional[Callable[..., Any]] = None,
                             ) -> BenchRecord:
    """Operation-dispatch microbenchmark: read-dense wrapper traffic.

    A handful of long-lived collections take a large burst of O(1)
    recorded operations (list get/size/is_empty, map get/contains_key)
    under profiling, so the per-operation pipeline -- tick charge, op
    counter, size watermark, impl dispatch -- carries the ticks instead
    of allocation or impl work.  ``make_vm`` builds the VM from a
    ``profiler`` keyword (default: the default tool's ``make_vm``); the
    recorded ticks are the same on any faithful op pipeline.
    """
    from repro.collections.wrappers import ChameleonList, ChameleonMap

    n_ops = max(1000, int(160_000 * SCALE))
    tool = Chameleon(ToolConfig())
    vm = (make_vm or tool.make_vm)(profiler=tool._make_profiler())
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
    return BenchRecord.of_vm("op_dispatch_heavy", "synthetic", True, vm)


def run_suite() -> dict:
    """Run the seven microbenchmarks once each; returns the
    ``BENCH_chameleon.json`` document."""
    tool = Chameleon(ToolConfig())
    records = [_bench(f"{name}_capture_{'on' if capture else 'off'}",
                      tool, name, capture)
               for name in WORKLOADS for capture in (True, False)]
    records.append(_bench("gc_heavy", tool, WORKLOADS[0], capture=False,
                          gc_threshold_bytes=16 * 1024))
    records.append(_bench_gc_mark_heavy())
    records.append(_bench_op_dispatch_heavy())
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "scale": SCALE,
        "seed": SEED,
        "benchmarks": [record.to_dict() for record in records],
    }


# ----------------------------------------------------------------------
# Schema validation
# ----------------------------------------------------------------------
_TOP_LEVEL_FIELDS = {
    "schema": str,
    "schema_version": int,
    "scale": (int, float),
    "seed": int,
    "benchmarks": list,
}

_RECORD_FIELDS = {
    "name": str,
    "workload": str,
    "capture": bool,
    "ticks": int,
    "gc_cycles": int,
    "allocated_objects": int,
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
        name = record.get("name")
        if name in seen:
            problems.append(f"duplicate benchmark name {name!r}")
        seen.add(name)
    if not doc.get("benchmarks"):
        problems.append("benchmarks list is empty")
    if problems:
        raise ValueError("invalid BENCH document: " + "; ".join(problems))


def render_summary(doc: dict) -> str:
    """Human-readable table of a BENCH document."""
    lines = [f"perf tick golden (scale={doc['scale']}, seed={doc['seed']})",
             f"{'benchmark':<20} {'ticks':>12} {'GCs':>5} {'allocs':>9}"]
    for record in doc["benchmarks"]:
        lines.append(
            f"{record['name']:<20} {record['ticks']:>12} "
            f"{record['gc_cycles']:>5} {record['allocated_objects']:>9}")
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
