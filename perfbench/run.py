"""Benchmark driver: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload offline_tvla --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` first runs a third of the time untraced as a reference,
then wraps the layer boundaries (see ``spans.py``) and reports the
per-layer metrics, the tracing overhead and the fidelity guard.  Both
modes check every unit's output; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Run from the root of a checkout that holds ``src/repro``.
"""

from __future__ import annotations

import time

import speed

_CALIBRATION_AT_START = speed.calibrate(burst=3)
_SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")

#: The hash seed the benchmark pins for its own process and its pool
#: (TVLA's ticks depend on it; see ROADMAP item 1).
HASHSEED = "2009"

#: Set-ups per run: this process's plus fresh processes, median reported.
SETUP_REPEATS = 3

#: Raw spans are kept for this many traced units; every unit is folded
#: into the per-layer totals.
KEEP_SPAN_UNITS = 3


def metric_units(kind: str) -> dict:
    """``name -> unit`` of the ``end_to_end`` or ``per_layer`` metrics
    BENCHMARK.json defines, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {metric["name"]: metric["unit"]
                for metric in json.load(f)[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    git_rev = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            git_rev = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_rev = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "git_rev": git_rev,
            "src_sha256": digest.hexdigest()[:16],
            "seed": seed,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def _children_cpu_and_hwm():
    """CPU seconds and peak RSS (MB) of each live pool worker."""
    tick = os.sysconf("SC_CLK_TCK")
    out = {}
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{child.pid}/status") as handle:
                hwm = next((int(line.split()[1]) for line in handle
                            if line.startswith("VmHWM:")), 0)
        except (OSError, IndexError, ValueError):
            continue
        out[child.pid] = ((int(fields[11]) + int(fields[12])) / tick,
                          hwm / 1024)
    return out


# ----------------------------------------------------------------------
# Units
# ----------------------------------------------------------------------
class Loop:
    """Runs units, checks them and keeps their measurements."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.index = 0
        self.results = []
        self.failed = 0
        self.attempted = 0
        self.reference = {}  # unit key -> signature
        self.messages = []
        self.raw_walls = []
        self.calibrations = []  # calibration seconds of each kept unit
        self.pooled = getattr(workload, "pooled", False)
        self.sampler = None
        self.last_calibration = None

    def scaled_walls(self, first: int):
        """Reference-speed walls of the units kept since ``first``."""
        return speed.scale(self.raw_walls[first:], self.calibrations[first:])

    def run_one(self, before_unit=None, after_unit=None):
        index = self.index
        self.index += 1
        self.attempted += 1
        if self.last_calibration is None:
            self.last_calibration = speed.calibrate()
        before = self.last_calibration
        if before_unit is not None:
            before_unit(index)
        start = time.perf_counter()
        try:
            result = self.workload.unit(index)
            # Every unit pays for reclaiming its own cyclic garbage,
            # rather than whichever later unit the host collector's
            # thresholds happen to pick.
            gc.collect()
        except Exception:
            wall = time.perf_counter() - start
            if after_unit is not None:
                after_unit(index, None)
            self.last_calibration = None
            self.failed += 1
            self.messages.append(f"unit {index} raised:\n"
                                 + traceback.format_exc())
            return wall, None
        end = time.perf_counter()
        wall = end - start
        self.last_calibration = after = speed.calibrate()
        if after_unit is not None:
            result.problems.extend(after_unit(index, result) or ())
        seen = self.reference.setdefault(result.key, result.signature)
        if seen != result.signature:
            result.problems.append(
                f"simulated outputs differ from an earlier unit with the "
                f"same input {result.key!r}")
        if result.problems:
            self.failed += 1
            self.messages.append(f"unit {index} failed: "
                                 + "; ".join(result.problems))
        self.raw_walls.append(wall)
        during = (self.sampler.during(start, end)
                  if self.sampler is not None else None)
        self.calibrations.append(during if during is not None
                                 else (before + after) / 2)
        self.results.append(result)
        return wall, result

    def run_for(self, seconds, **hooks):
        start = time.perf_counter()
        first = len(self.raw_walls)
        ran = 0
        with (speed.Sampler() if self.pooled
              else contextlib.nullcontext()) as self.sampler:
            while time.perf_counter() - start < seconds or ran == 0:
                self.run_one(**hooks)
                ran += 1
        self.sampler = None
        return time.perf_counter() - start, first


def setup_workload(name: str, seed: int):
    import suite

    if name not in suite.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; known: "
                         f"{sorted(suite.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    suite.common_setup()
    workload = suite.WORKLOADS[name]()
    workload.setup(seed, OUT_DIR)
    loop = Loop(workload)
    loop.run_one()  # the untimed warm-up unit
    return workload, loop


def setup_repeat(args) -> float:
    """One set-up in a fresh process; returns its set-up seconds."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up repeat failed ({done.returncode}):\n"
                           + done.stderr[-2000:])
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def measure_end_to_end(args, workload, loop, setup_main):
    import stats

    setups = [setup_main] + [setup_repeat(args)
                             for _ in range(SETUP_REPEATS - 1)]
    cpu_start = time.process_time()
    children_start = _children_cpu_and_hwm()
    elapsed, first = loop.run_for(args.seconds)
    cpu = time.process_time() - cpu_start
    children_end = _children_cpu_and_hwm()
    for pid, (child_cpu, _hwm) in children_end.items():
        cpu += child_cpu - children_start.get(pid, (0.0, 0.0))[0]
    walls = loop.scaled_walls(first)
    raw_walls = loop.raw_walls[first:]
    results = loop.results[first:]
    units = len(walls)
    busy = sum(walls)
    # CPU time moves with the host speed exactly like wall time does.
    factor = busy / sum(raw_walls)
    rss = max([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
              + [hwm for _cpu, hwm in children_end.values()])
    metrics = {
        "setup_s": statistics.median(setups),
        "units_per_s": units / busy,
        "unit_p50_s": statistics.median(walls),
        "unit_p90_s": stats.nearest_rank(walls, 0.9),
        "cpu_s_per_unit": cpu * factor / units,
        "peak_rss_mb": rss,
        "sim_mticks_per_s": sum(r.sim_ticks for r in results) / 1e6 / busy,
        "heap_saved_pct": statistics.median(r.heap_saved_pct
                                            for r in results),
        "sim_speedup_x": statistics.median(r.sim_speedup_x
                                           for r in results),
        "sim_overhead_x": statistics.median(r.sim_overhead_x
                                            for r in results),
    }
    beyond = stats.samples_beyond(units, 0.9)
    notes = [f"set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}; "
             f"median reported",
             f"timed units: {units} in {elapsed:.3f} s (closed loop, one "
             f"client)",
             f"host speed: seconds are scaled to the reference speed "
             f"({'samples during' if loop.pooled else 'samples around'} "
             f"each unit), by "
             f"{factor:.4f} on average; raw unit p50 "
             f"{statistics.median(raw_walls):.4f} s, raw CPU per unit "
             f"{cpu / units:.4f} s",
             f"unit_p90_s: {units} samples, {beyond} beyond p90"
             + ("" if stats.percentile_reportable(units, 0.9) else
                f" -- fewer than {stats.MIN_BEYOND}, read it as an upper "
                f"order statistic, not a stable p90")]
    return metrics, notes


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
class Layers:
    """Per-layer totals folded from every traced unit."""

    def __init__(self) -> None:
        from collections import Counter

        self.units = 0
        self.self_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.jobs = []
        self.unit_wall = 0.0
        self.kept_spans = []

    def fold(self, rec, wall, result) -> None:
        import stats

        self.units += 1
        self.unit_wall += wall
        self.self_s.update(stats.self_time_by_name(rec.spans))
        self.calls.update(span[1] for span in rec.spans)
        self.counts.update(rec.counts)
        if result is not None:
            self.counts.update(result.counts)
        self.jobs.extend(rec.jobs)
        if self.units <= KEEP_SPAN_UNITS:
            self.kept_spans.extend(rec.spans)


def count_problems(enabled, rec, result):
    """The fidelity guard's count checks for one traced unit."""
    from collections import Counter

    calls = Counter(span[1] for span in rec.spans)
    counts = rec.counts
    checks = []
    if "runtime.allocate" in enabled:
        checks.append(("runtime.allocate calls that returned",
                       calls["runtime.allocate"]
                       - counts["runtime.allocate.oom"],
                       "heap.total_allocated_objects",
                       counts["memory.heap.allocated_objects"]))
    if "memory.gc.collect" in enabled:
        checks.append(("memory.gc.collect calls",
                       calls["memory.gc.collect"], "timeline.cycle_count",
                       counts["memory.gc.timeline_cycles"]))
    if ("rules.evaluate_context" in enabled and result is not None
            and "core.online.decisions" in result.counts):
        checks.append(("rules.evaluate_context calls",
                       calls["rules.evaluate_context"],
                       "policy.decisions_made",
                       result.counts["core.online.decisions"]))
    if {"analysis.minheap.probe", "analysis.minheap.search"} <= enabled:
        checks.append(("analysis.minheap.probe calls",
                       calls["analysis.minheap.probe"],
                       "MinHeapResult.probes",
                       counts["analysis.minheap.probes"]))
    return [f"{a} {x} != {b} {y}" for a, x, b, y in checks if x != y]


def measure_traced(args, workload, loop):
    import spans

    # Untraced reference units, in this process and before any wrapper
    # exists, for the fidelity guard and the tracing overhead.
    reference_seconds = args.seconds / 3
    ref_elapsed, ref_first = loop.run_for(reference_seconds)
    ref_walls = loop.raw_walls[ref_first:]
    notes = []

    rec = spans.recorder()
    layers = Layers()
    enabled = set(spans.ALL_BOUNDARIES)
    state = {}

    def before_unit(index):
        rec.reset(root=None, unit=index)
        state["span"] = spans.span("unit").__enter__()

    def after_unit(index, result):
        state["span"].__exit__(None, None, None)
        spans.flush_open_runs()
        return count_problems(enabled, rec, result)

    def traced_unit():
        return loop.run_one(before_unit, after_unit)

    # Fidelity: one traced unit on an input the reference phase ran.
    spans.install(enabled)
    loop.index = 0
    failed_before = loop.failed
    wall, result = traced_unit()
    dropped = {}
    if result is None or loop.failed > failed_before:
        notes.append("fidelity: the fully traced unit failed ("
                     + loop.messages.pop().splitlines()[0]
                     + "); tracing one boundary at a time")
        loop.failed = failed_before
        loop.attempted -= 1
        for name in spans.ALL_BOUNDARIES:
            spans.install({name})
            enabled = {name}
            loop.index = 0
            before = loop.failed
            _wall, probe = traced_unit()
            loop.attempted -= 1
            if probe is None or loop.failed > before:
                loop.failed = before
                dropped[name] = loop.messages.pop().splitlines()[0]
        enabled = set(spans.ALL_BOUNDARIES) - set(dropped)
        spans.install(enabled)
    else:
        layers.fold(rec, wall, result)
    for name, reason in sorted(dropped.items()):
        notes.append(f"fidelity: dropped boundary {name}: {reason}")
    notes.append(f"fidelity: {len(enabled)} of "
                 f"{len(spans.ALL_BOUNDARIES)} boundaries kept; traced "
                 f"simulated outputs compared with the untraced reference "
                 f"units of the same input")

    deadline = time.perf_counter() + args.seconds - ref_elapsed
    traced_walls = []
    while time.perf_counter() < deadline or layers.units == 0:
        wall, result = traced_unit()
        traced_walls.append(wall)
        layers.fold(rec, wall, result)
    spans.uninstall()

    ref_p50 = statistics.median(ref_walls)
    traced_p50 = statistics.median(traced_walls or [wall])
    notes.append(f"tracing overhead: traced p50 {traced_p50:.4f} s - "
                 f"untraced p50 {ref_p50:.4f} s = "
                 f"{traced_p50 - ref_p50:+.4f} s "
                 f"({100 * (traced_p50 / ref_p50 - 1):+.1f}%; "
                 f"{len(traced_walls)} traced, {len(ref_walls)} untraced "
                 f"units)")
    metrics, more = per_layer_metrics(workload, layers)
    notes.extend(more)
    write_spans(args, layers, metrics)
    return metrics, notes


def per_layer_metrics(workload, layers):
    import stats

    units = layers.units
    self_s, calls, counts = layers.self_s, layers.calls, layers.counts

    def per_unit(value):
        return value / units

    metrics = {}
    for name in ("runtime.allocate", "runtime.capture",
                 "runtime.choose_implementation", "runtime.finish",
                 "memory.gc.collect", "profiler.build_report",
                 "rules.evaluate", "rules.evaluate_context",
                 "rules.evaluate_intervals", "core.plain_run",
                 "lint.check_rules", "lint.usage", "lint.interproc",
                 "lint.drift"):
        metrics[f"{name}.self_s"] = per_unit(self_s[name])
    for name in ("runtime.allocate", "runtime.capture",
                 "runtime.choose_implementation", "rules.evaluate",
                 "rules.evaluate_context", "rules.evaluate_intervals",
                 "core.plain_run"):
        metrics[f"{name}.calls"] = per_unit(calls[name])
    for name in ("collections.ops", "collections.instances",
                 "runtime.sim_ticks", "memory.gc.freed_objects",
                 "memory.heap.allocated_objects", "profiler.contexts",
                 "core.online.decisions", "analysis.minheap.probes",
                 "analysis.minheap.oom_runs", "lint.interproc.sites",
                 "lint.findings"):
        metrics[name] = per_unit(counts[name])
    metrics["memory.gc.cycles"] = per_unit(calls["memory.gc.collect"])
    metrics["analysis.minheap.searches"] = per_unit(
        calls["analysis.minheap.search"])

    metrics["workloads.run.self_s"] = per_unit(
        self_s["workloads.run"] + self_s["workloads.run.profiled"])
    # Only profiled runs count their operations, so the base is their
    # share of workloads.run.
    ratios = [
        stats.Ratio("collections.ns_per_op", self_s["workloads.run.profiled"],
                    "workloads.run.self_s of profiled runs, total (s)",
                    counts["collections.ops"], "collections.ops total",
                    scale=1e9),
        stats.Ratio("memory.gc.ms_per_cycle", self_s["memory.gc.collect"],
                    "memory.gc.collect.self_s total (s)",
                    calls["memory.gc.collect"], "memory.gc.cycles total",
                    scale=1e3),
    ]

    jobs = layers.jobs
    workers = getattr(getattr(workload, "scheduler", None), "jobs", 1)
    sent = [j for j in jobs if j["sent"] is not None]
    queue_wait = sum(j["start"] - j["sent"] for j in sent)
    worker_wall = sum(j["wall"] for j in jobs)
    metrics["analysis.scheduler.jobs"] = per_unit(len(jobs))
    metrics["analysis.scheduler.queue_wait_s"] = per_unit(queue_wait)
    metrics["analysis.scheduler.worker_wall_s"] = per_unit(worker_wall)
    metrics["analysis.scheduler.worker_cpu_s"] = per_unit(
        sum(j["cpu"] for j in jobs))
    metrics["analysis.scheduler.pickle_s"] = per_unit(
        sum(j["pickle_s"] for j in jobs))
    metrics["analysis.scheduler.pickle_bytes"] = per_unit(
        sum(j["pickle_bytes"] for j in jobs))
    scheduler = getattr(workload, "scheduler", None)
    metrics["analysis.scheduler.spawn_s"] = (
        scheduler.stats.spawn_seconds if scheduler is not None else 0.0)
    ratios.append(stats.Ratio(
        "analysis.scheduler.busy_ratio", worker_wall,
        "worker wall total (s)", workers * layers.unit_wall,
        f"{workers} workers x pass wall total (s)"))

    store = getattr(workload, "store", None)
    entries = sizes = 0
    if store is not None and os.path.isdir(store):
        for entry in os.scandir(store):
            if entry.name.endswith(".pkl"):
                entries += 1
                sizes += entry.stat().st_size
    metrics["analysis.index.store_entries"] = entries
    metrics["analysis.index.store_bytes"] = sizes
    for ratio in ratios:
        metrics[ratio.name] = ratio.value

    notes = [f"per-layer values are per traced unit ({units} units) "
             f"unless named otherwise; self_s excludes child spans"]
    notes.extend(ratio.render() for ratio in ratios)
    notes.append("analysis.scheduler.spawn_s is the pool spawn of the "
                 "set-up; analysis.index.* is the session store at the end")
    if sent:
        residuals = [(j["arrival"] - j["sent"])
                     - ((j["start"] - j["sent"]) + j["wall"]) for j in sent
                     if j["arrival"] is not None]
        work = [j["traced_work"] for j in sent]
        notes.append(
            f"scheduler split: {len(sent)} pooled jobs; submit-to-arrival "
            f"minus (queue wait + worker wall): median "
            f"{statistics.median(residuals) * 1e3:.2f} ms, range "
            f"{min(residuals) * 1e3:.2f}..{max(residuals) * 1e3:.2f} ms; "
            f"the job wrapper's own work: median "
            f"{statistics.median(work) * 1e3:.2f} ms, max "
            f"{max(work) * 1e3:.2f} ms; the rest is result transfer, "
            f"including the parent waiting for a CPU"
            + ("" if min(residuals) >= 0 else
               " -- NEGATIVE residual: the split does not add up"))
    unknown = set(metrics) ^ set(metric_units("per_layer"))
    if unknown:
        raise AssertionError(f"per-layer metric mismatch: {sorted(unknown)}")
    return metrics, notes


def write_spans(args, layers, metrics) -> None:
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}"
                                 f".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "span_fields": ["id", "name", "start", "end", "parent",
                                   "unit"],
                   "spans": layers.kept_spans, "jobs": layers.jobs,
                   "per_layer": metrics}, handle)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASHSEED:
        env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + sys.argv[1:], env)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no src/repro under {ROOT}: run from a checkout of "
              f"the repository", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)

    workload, loop = setup_workload(args.workload, args.seed)
    setup_raw = time.perf_counter() - _SETUP_START
    loop.last_calibration = speed.calibrate(burst=3)
    setup_s = speed.scale([setup_raw], [(_CALIBRATION_AT_START
                                         + loop.last_calibration) / 2])[0]
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        env = environment(args.seed)
        if args.trace:
            metrics, notes = measure_traced(args, workload, loop)
            units = metric_units("per_layer")
        else:
            metrics, notes = measure_end_to_end(args, workload, loop,
                                                setup_s)
            units = metric_units("end_to_end")
    finally:
        workload.close()

    print(f"workload {args.workload}: {workload.__doc__.splitlines()[0]}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for note in notes:
        print(note)
    for message in loop.messages:
        print(message)
    print(f"failed_ratio = {loop.failed}/{loop.attempted} = "
          f"{loop.failed / loop.attempted:.4f} (warm-up unit included)")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
