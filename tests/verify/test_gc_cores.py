"""Differential byte-identity of the collector against its oracle.

``MarkSweepGC``'s batched mark and account phases must be observably
indistinguishable from the textbook loops kept as
:class:`repro.verify.oracle.ReferenceMarkSweepGC`: same charged ticks,
same per-cycle statistics (including dict *insertion order*, which JSON
round-trips preserve), same freed-object sequence, same surviving heap.
This suite checks that contract differentially -- over the committed
trace corpus (real workload operation mixes), over generated fuzz
traces, and over raw synthetic heap shapes driven straight through
``collect()`` -- with the heap sanitizer attached to the production
replays.
"""

import dataclasses
import functools
import json
import pathlib
import random

import pytest

from repro.memory.gc import MarkSweepGC
from repro.memory.heap import SimHeap
from repro.verify.generate import generate_trace
from repro.verify.oracle import ReferenceMarkSweepGC, oracle_vm
from repro.verify.trace import BASELINE_IMPLS, Trace, replay_trace

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def _replay(trace: Trace, gc: str):
    impl = BASELINE_IMPLS[trace.kind]
    return replay_trace(
        trace, impl, gc_detail=True, sanitize=(gc != "reference"),
        vm_factory=functools.partial(oracle_vm, ops="production", gc=gc))


def _assert_identical(trace: Trace) -> None:
    reference = _replay(trace, "reference")
    assert reference.gc_detail["cycles"], "replay never collected"
    result = _replay(trace, "production")
    assert not result.violations, \
        f"sanitizer violations {result.violations}"
    assert result.ticks == reference.ticks, "tick divergence"
    assert result.outcomes == reference.outcomes, \
        "observable outcome divergence"
    # Full GC record, sweep order included.  Comparing the JSON
    # serialisation also pins dict insertion order (type distributions,
    # per-context stats), the strictest observable.
    assert json.dumps(result.gc_detail["freed_ids"]) \
        == json.dumps(reference.gc_detail["freed_ids"]), \
        "freed-object sequence divergence"
    assert result.gc_detail["surviving_ids"] \
        == reference.gc_detail["surviving_ids"], "surviving-heap divergence"
    assert json.dumps(result.gc_detail["cycles"]) \
        == json.dumps(reference.gc_detail["cycles"]), \
        "per-cycle GC stats divergence"


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_traces_identical_across_cores(path):
    _assert_identical(Trace.from_json(path.read_text(encoding="utf-8")))


@pytest.mark.parametrize("adt", ["list", "set", "map"])
@pytest.mark.parametrize("seed", range(6))
def test_generated_traces_identical_across_cores(adt, seed):
    _assert_identical(generate_trace(adt, seed=seed, n_ops=40))


# ----------------------------------------------------------------------
# Raw-heap property test: random object graphs through collect()
# ----------------------------------------------------------------------


def _random_heap(seed: int) -> SimHeap:
    rng = random.Random(seed)
    heap = SimHeap()
    objects = [heap.allocate(rng.choice(["A", "B", "C"]),
                             rng.choice([16, 24, 48]))
               for _ in range(rng.randrange(30, 120))]
    for obj in objects:
        for _ in range(rng.randrange(0, 4)):
            obj.add_ref(rng.choice(objects).obj_id)
    for obj in rng.sample(objects, rng.randrange(1, 8)):
        heap.add_root(obj)
    return heap


def _collect_record(seed: int, collector) -> dict:
    heap = _random_heap(seed)
    charged = []
    gc = collector(heap, charge=charged.append)
    cycles = []
    for tick in range(3):
        stats = gc.collect(tick=tick)
        cycles.append(dataclasses.asdict(stats))
        # Churn between cycles: drop a root, add fresh garbage.
        if heap._roots:
            first_root = heap.get(next(iter(heap._roots)))
            heap.remove_root(first_root)
        heap.allocate("Churn", 16)
    freed = [heap.total_freed_objects, heap.total_freed_bytes]
    return {
        "charged": charged,
        "cycles": cycles,
        "freed": freed,
        "surviving": sorted(heap._objects),
        "live_bytes": gc.live_bytes_estimate(),
    }


@pytest.mark.parametrize("seed", range(10))
def test_random_heaps_identical_across_cores(seed):
    reference = _collect_record(seed, ReferenceMarkSweepGC)
    record = _collect_record(seed, MarkSweepGC)
    assert json.dumps(record) == json.dumps(reference), \
        f"collector diverges from its oracle on seed {seed}"
