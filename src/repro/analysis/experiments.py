"""Experiment runners: one per table/figure of the paper's evaluation.

Each ``run_*`` function regenerates one artifact (see the experiment index
in DESIGN.md) and returns structured results plus a rendered text block.
The benchmark suite under ``benchmarks/`` drives these runners and asserts
the *shape* targets -- who wins, by roughly what factor, where crossovers
fall -- against the paper's reported numbers, which are recorded here in
:data:`PAPER_FIG6` / :data:`PAPER_FIG7` / :data:`PAPER_ONLINE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.minheap import measure_min_heap
from repro.analysis.scheduler import JobGraph, Scheduler
from repro.analysis.tables import (ExperimentRow,
                                   render_fraction_chart, render_series,
                                   render_table)
from repro.core.apply import ReplacementMap
from repro.core.chameleon import Chameleon, RunMetrics, SessionCache
from repro.core.config import ToolConfig
from repro.core.online import OnlineChameleon
from repro.runtime.vm import ImplementationChoice
from repro.workloads import (BENCHMARKS, BloatWorkload, TvlaWorkload,
                             Workload)

__all__ = [
    "PAPER_FIG6", "PAPER_FIG7", "PAPER_ONLINE",
    "Fig6Result", "Fig7Result", "OnlineResult", "HybridResult",
    "run_fig2", "run_fig3", "run_fig6", "run_fig7", "run_fig8",
    "run_online", "run_hybrid_ablation", "run_profiling_overhead",
    "run_all", "OverheadResult", "get_session_cache",
    "reset_session_cache", "attach_session_store", "warm_worker",
]

# ---------------------------------------------------------------------------
# Paper-reported reference values (section 5.3 text; Fig. 6/7 bars).
# ---------------------------------------------------------------------------
PAPER_FIG6: Dict[str, Optional[float]] = {
    # Minimal-heap reduction, as a fraction of the original minimal heap.
    "bloat": 0.56,       # with the manual lazy-allocation fix
    "tvla": 0.5395,
    "findbugs": 0.1379,
    "fop": 0.0769,
    "soot": 0.06,
    "pmd": 0.0,
}

PAPER_FIG6_AUTO: Dict[str, Optional[float]] = {
    # Tool-only (automatically applicable) reductions, where the text
    # distinguishes them: bloat's LazyArrayList fix saves "more than 20%".
    "bloat": 0.20,
}

PAPER_FIG7: Dict[str, Optional[float]] = {
    # Running-time speedup at the original minimal heap (baseline/optimized).
    "tvla": 49.0 / 19.0,   # "from 49 to 19 minutes"
    "soot": 1.11,          # "11% improvement in the running time"
    "pmd": 1.083,          # "runtime improvement of 8.33%"
    "bloat": None,         # bars only
    "fop": None,
    "findbugs": None,
}

PAPER_ONLINE: Dict[str, Optional[float]] = {
    # Fully automatic mode slowdown vs the uninstrumented default run.
    "tvla": 1.35,          # "a slowdown of 35%"
    "pmd": 6.0,            # "prohibitive (6x slowdown)"
}

PAPER_PMD_GC_REDUCTION = 0.16   # "the number of GCs reduced by 16%"
PAPER_BLOAT_ENTRY_FRACTION = 0.25  # "around 25% of the heap ... Entry"


# ---------------------------------------------------------------------------
# Profiling-session cache shared by every runner in this process.
#
# Fig. 3, Fig. 6, Fig. 7 and the hybrid ablation all profile the same
# workloads under the same configuration; the cache makes each distinct
# (workload, config) profile happen once per process.  Scheduler workers
# each hold their own copy of this module, so at jobs>1 the cache works
# per worker unless one session store is attached in the parent and in
# every worker (attach_session_store / warm_worker) -- results are
# unchanged either way because profiled runs are deterministic.
# ---------------------------------------------------------------------------
_SESSION_CACHE = SessionCache()


def get_session_cache() -> SessionCache:
    """This process's experiment session cache (hit/miss counters live
    here)."""
    return _SESSION_CACHE


def reset_session_cache() -> None:
    """Drop every cached session and zero the counters."""
    _SESSION_CACHE.clear()


def attach_session_store(path: Optional[str]) -> None:
    """Attach (or with ``None`` detach) a content-addressed
    :class:`~repro.analysis.index.SessionStore` behind this process's
    session cache: misses read through it, new sessions write through.

    Attaching the same directory in the parent and in every scheduler
    worker is what shares profiling sessions across the pool -- each
    session crosses the process boundary once, as one content-addressed
    file, instead of being re-profiled (or re-pickled wholesale) per
    worker."""
    from repro.analysis.index import SessionStore

    _SESSION_CACHE.attach_store(None if path is None else SessionStore(path))


def warm_worker(store_path: Optional[str] = None) -> None:
    """Scheduler-pool warmup hook (top-level, hence picklable for
    spawn-style pools): run once per worker at pool creation.

    Attaches the shared session store and touches the heavy import
    chains (workloads, min-heap search) so the first real job pays for
    work, not module initialisation."""
    attach_session_store(store_path)
    import repro.analysis.minheap  # noqa: F401
    import repro.workloads  # noqa: F401


#: One tool per configuration fingerprint, as the min-heap probes keep
#: theirs: building a Chameleon builds and validates its rule engine.
_TOOLS: Dict[str, Chameleon] = {}


def _tool(config: Optional[ToolConfig] = None) -> Chameleon:
    config = config or ToolConfig()
    fingerprint = config.fingerprint()
    tool = _TOOLS.get(fingerprint)
    if tool is None:
        tool = _TOOLS[fingerprint] = Chameleon(
            config, session_cache=_SESSION_CACHE)
    return tool


# ---------------------------------------------------------------------------
# Fig. 2 -- collection live/used/core fractions per GC cycle (TVLA)
# ---------------------------------------------------------------------------
@dataclass
class Fig2Result:
    """Per-cycle (live%, used%, core%) series for TVLA."""

    series: List[Tuple[int, float, float, float]]
    peak_live_fraction: float
    peak_used_fraction: float

    def render(self) -> str:
        return (render_series(
            "Fig. 2: TVLA collection fractions per GC cycle",
            ("cycle", "live", "used", "core"), self.series)
            + "\n\n" + render_fraction_chart(self.series))


def run_fig2(scale: float = 0.5,
             gc_threshold_bytes: int = 64 * 1024) -> Fig2Result:
    """Regenerate the Fig. 2 series from a profiled TVLA run.

    A smaller GC threshold gives a denser cycle series, like the
    continuous sampling of the collection-aware GC in the paper.
    """
    config = ToolConfig(gc_threshold_bytes=gc_threshold_bytes)
    session = _tool(config).profile(TvlaWorkload(scale=scale))
    timeline = session.report.timeline
    series = timeline.fractions_series()
    peak_live = max((row[1] for row in series), default=0.0)
    peak_used = max((row[2] for row in series), default=0.0)
    return Fig2Result(series=series, peak_live_fraction=peak_live,
                      peak_used_fraction=peak_used)


# ---------------------------------------------------------------------------
# Fig. 3 -- top allocation contexts with operation distributions (TVLA)
# ---------------------------------------------------------------------------
@dataclass
class Fig3Result:
    """Ranked TVLA contexts with potential and operation mix."""

    rendered: str
    top: list

    def render(self) -> str:
        return self.rendered


def run_fig3(scale: float = 0.5, top: int = 4) -> Fig3Result:
    """Regenerate the Fig. 3 ranked-context summary for TVLA."""
    session = _tool().profile(TvlaWorkload(scale=scale))
    return Fig3Result(rendered=session.report.render_top_contexts(top),
                      top=session.report.top_contexts(top))


# ---------------------------------------------------------------------------
# Fig. 6 -- minimal-heap improvement per benchmark
# ---------------------------------------------------------------------------
@dataclass
class Fig6Result:
    """Per-benchmark minimal-heap reductions (auto and with manual fixes)."""

    rows: List[ExperimentRow]
    details: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def reduction(self, benchmark: str) -> float:
        for row in self.rows:
            if row.benchmark == benchmark and row.metric == "min-heap saved":
                return row.measured
        raise KeyError(benchmark)

    def auto_reduction(self, benchmark: str) -> float:
        for row in self.rows:
            if (row.benchmark == benchmark
                    and row.metric == "min-heap saved (auto)"):
                return row.measured
        raise KeyError(benchmark)

    def render(self) -> str:
        return render_table("Fig. 6: minimal-heap size improvement",
                            self.rows)


#: The three minimal-heap searches behind each Fig. 6 bar.
_FIG6_VARIANTS = ("base", "auto", "manual")


def _fig6_variant_job(workload_class, scale: float, resolution: int,
                      variant: str) -> Dict[str, int]:
    """One Fig. 6 minimal-heap search (scheduler job).

    ``base`` searches the unmodified workload, ``auto`` profiles it and
    searches under the tool-built policy, ``manual`` searches the
    hand-fixed (``manual_fixes``) variant.
    """
    tool = _tool()
    workload = workload_class(scale=scale,
                              manual_fixes=(variant == "manual"))
    policy = None
    contexts_replaced = 0
    if variant == "auto":
        session = tool.profile(workload_class(scale=scale))
        policy = tool.build_policy(session.suggestions)
        contexts_replaced = len(policy)
    result = measure_min_heap(tool, workload, policy=policy,
                              resolution=resolution)
    return {"min_heap": result.min_heap_bytes,
            "contexts_replaced": contexts_replaced}


def run_fig6(scale: float = 0.5, resolution: int = 8192,
             scheduler: Optional[Scheduler] = None) -> Fig6Result:
    """Regenerate Fig. 6: profile, apply, and re-search the minimal heap.

    For each benchmark the *auto* row applies the tool's suggestions
    through the replacement policy; the headline row additionally uses the
    workload's ``manual_fixes`` variant where the paper applied source
    edits beyond automatic replacement (bloat's lazy allocation).

    The 3 searches x 6 benchmarks are independent jobs; a scheduler with
    ``jobs > 1`` fans them across a process pool with results merged in
    benchmark order, so the figure is identical at any parallelism.
    """
    scheduler = scheduler or Scheduler(jobs=1)
    graph = JobGraph()
    for workload_class in BENCHMARKS:
        for variant in _FIG6_VARIANTS:
            graph.add(f"fig6:{workload_class.name}:{variant}",
                      _fig6_variant_job, workload_class, scale, resolution,
                      variant)
    searches = scheduler.run(graph)
    rows: List[ExperimentRow] = []
    details: Dict[str, Dict[str, int]] = {}
    for workload_class in BENCHMARKS:
        name = workload_class.name
        base, auto, manual = (
            searches[f"fig6:{name}:{variant}"]["min_heap"]
            for variant in _FIG6_VARIANTS)
        contexts_replaced = \
            searches[f"fig6:{name}:auto"]["contexts_replaced"]
        auto_saved = 1.0 - auto / base
        manual_saved = 1.0 - manual / base
        best_saved = max(auto_saved, manual_saved)
        rows.append(ExperimentRow(
            name, "min-heap saved", PAPER_FIG6.get(name), best_saved,
            note=f"{base}B -> {min(auto, manual)}B"))
        rows.append(ExperimentRow(
            name, "min-heap saved (auto)", PAPER_FIG6_AUTO.get(name),
            auto_saved, note=f"{contexts_replaced} contexts replaced"))
        details[name] = {"base": base, "auto": auto, "manual": manual}
    return Fig6Result(rows=rows, details=details)


# ---------------------------------------------------------------------------
# Fig. 7 -- running-time improvement at the original minimal heap
# ---------------------------------------------------------------------------
@dataclass
class Fig7Result:
    """Per-benchmark speedups at the original minimal heap."""

    rows: List[ExperimentRow]
    gc_cycles: Dict[str, Tuple[int, int]] = field(default_factory=dict)

    def speedup(self, benchmark: str) -> float:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row.measured
        raise KeyError(benchmark)

    def render(self) -> str:
        return render_table(
            "Fig. 7: running time at the original minimal heap", self.rows)


def _fig7_benchmark_job(workload_class, scale: float,
                        resolution: int) -> Dict[str, int]:
    """One Fig. 7 bar (scheduler job): search the original minimal heap,
    then time optimized under it; the baseline is the search's own run
    at that minimum."""
    tool = _tool()
    workload = workload_class(scale=scale)
    session = tool.profile(workload_class(scale=scale))
    policy = tool.build_policy(session.suggestions)
    search = measure_min_heap(tool, workload, resolution=resolution)
    base_heap, baseline = search.min_heap_bytes, search.at_minimum
    if workload.name == "bloat":
        # The paper's bloat fix is the manual lazy allocation.
        _, optimized = tool.plain_run(
            workload_class(scale=scale, manual_fixes=True),
            heap_limit=base_heap)
    else:
        _, optimized = tool.plain_run(workload.fresh(), policy=policy,
                                      heap_limit=base_heap)
    return {"baseline_ticks": baseline.ticks,
            "optimized_ticks": optimized.ticks,
            "baseline_gcs": baseline.gc_cycles,
            "optimized_gcs": optimized.gc_cycles}


def run_fig7(scale: float = 0.5, resolution: int = 8192,
             scheduler: Optional[Scheduler] = None) -> Fig7Result:
    """Regenerate Fig. 7: both configurations run under the *original*
    minimal-heap limit (section 5.2, step 6).

    One independent job per benchmark; a scheduler with ``jobs > 1``
    runs them on the process pool, merged in benchmark order.
    """
    scheduler = scheduler or Scheduler(jobs=1)
    graph = JobGraph()
    for workload_class in BENCHMARKS:
        graph.add(f"fig7:{workload_class.name}", _fig7_benchmark_job,
                  workload_class, scale, resolution)
    measured = scheduler.run(graph)
    rows: List[ExperimentRow] = []
    cycles: Dict[str, Tuple[int, int]] = {}
    for workload_class in BENCHMARKS:
        name = workload_class.name
        bar = measured[f"fig7:{name}"]
        speedup = (bar["baseline_ticks"] / bar["optimized_ticks"]
                   if bar["optimized_ticks"] else 1.0)
        rows.append(ExperimentRow(
            name, "speedup @ original min-heap", PAPER_FIG7.get(name),
            speedup, unit="x",
            note=f"GCs {bar['baseline_gcs']} -> {bar['optimized_gcs']}"))
        cycles[name] = (bar["baseline_gcs"], bar["optimized_gcs"])
    return Fig7Result(rows=rows, gc_cycles=cycles)


# ---------------------------------------------------------------------------
# Fig. 8 -- bloat's collection spike across GC cycles
# ---------------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Bloat per-cycle collection fractions with spike location."""

    series: List[Tuple[int, float, float, float]]
    spike_cycle: int
    spike_fraction: float
    entry_fraction_at_spike: float

    def render(self) -> str:
        body = (render_series(
            "Fig. 8: bloat collection fraction per GC cycle",
            ("cycle", "live", "used", "core"), self.series)
            + "\n\n" + render_fraction_chart(self.series))
        return (f"{body}\n"
                f"spike at cycle {self.spike_cycle}: "
                f"{100 * self.spike_fraction:.1f}% of live data in "
                f"collections; LinkedList$Entry = "
                f"{100 * self.entry_fraction_at_spike:.1f}% of heap "
                f"(paper: ~{100 * PAPER_BLOAT_ENTRY_FRACTION:.0f}%)")


def run_fig8(scale: float = 0.5,
             gc_threshold_bytes: int = 64 * 1024) -> Fig8Result:
    """Regenerate the Fig. 8 spike series from a profiled bloat run.

    The entry fraction counts only ``LinkedList$Entry`` bytes -- the
    sentinel heads of the never-used handler lists -- matching the
    paper's "around 25% of the heap ... consumed by LinkedList$Entry
    objects" measurement, not the lists' full ADT footprint.
    """
    config = ToolConfig(gc_threshold_bytes=gc_threshold_bytes)
    tool = _tool(config)
    session = tool.profile(BloatWorkload(scale=scale))
    timeline = session.report.timeline
    series = timeline.fractions_series()
    spike = max(timeline.cycles, key=lambda s: s.collection_live)
    # One sentinel entry per live (empty) LinkedList at the spike cycle.
    entry_size = config.memory_model.linked_entry_size()
    linked_contexts = {
        profile.context_id for profile in session.report.profiles
        if profile.src_type == "LinkedList"}
    sentinel_count = sum(
        stats.object_count for context_id, stats in spike.per_context.items()
        if context_id in linked_contexts)
    entry_fraction = (sentinel_count * entry_size / spike.live_data
                      if spike.live_data else 0.0)
    return Fig8Result(series=series, spike_cycle=spike.cycle,
                      spike_fraction=spike.collection_fraction,
                      entry_fraction_at_spike=entry_fraction)


# ---------------------------------------------------------------------------
# Section 5.4 -- fully automatic (online) mode
# ---------------------------------------------------------------------------
@dataclass
class OnlineResult:
    """Per-benchmark online-mode slowdowns and space savings."""

    rows: List[ExperimentRow]

    def slowdown(self, benchmark: str) -> float:
        for row in self.rows:
            if row.benchmark == benchmark and row.metric == "online slowdown":
                return row.measured
        raise KeyError(benchmark)

    def render(self) -> str:
        return render_table("Section 5.4: fully automatic mode", self.rows)


def run_online(scale: float = 0.5,
               benchmarks: Optional[Sequence] = None,
               retrofit_live: bool = True) -> OnlineResult:
    """Regenerate the section 5.4 online-mode measurements.

    ``retrofit_live`` (on by default) lets decided contexts convert their
    already-live instances, which is what makes the TVLA online space
    saving match the manual one, as the paper reports; it has no effect
    on allocation-churn benchmarks like PMD.
    """
    online = OnlineChameleon(
        ToolConfig(online_retrofit_live=retrofit_live))
    rows: List[ExperimentRow] = []
    for workload_class in (benchmarks or BENCHMARKS):
        workload = workload_class(scale=scale)
        result = online.run(workload)
        name = workload.name
        rows.append(ExperimentRow(
            name, "online slowdown", PAPER_ONLINE.get(name),
            result.slowdown, unit="x",
            note=f"{result.policy.replacements_chosen} contexts replaced"))
        rows.append(ExperimentRow(
            name, "online peak saving", None, result.peak_reduction,
            note="space reduction during the same run"))
    return OnlineResult(rows=rows)


# ---------------------------------------------------------------------------
# Section 2.3 -- hybrid (SizeAdapting) conversion-threshold ablation
# ---------------------------------------------------------------------------
@dataclass
class HybridResult:
    """Footprint/time of SizeAdaptingMap at several conversion thresholds."""

    rows: List[Tuple[str, int, int]]  # (label, peak bytes, ticks)

    def peak(self, label: str) -> int:
        for row_label, peak, _ in self.rows:
            if row_label == label:
                return peak
        raise KeyError(label)

    def ticks(self, label: str) -> int:
        for row_label, _, ticks in self.rows:
            if row_label == label:
                return ticks
        raise KeyError(label)

    def render(self) -> str:
        return render_series(
            "Section 2.3: SizeAdaptingMap conversion-threshold ablation "
            "(TVLA)", ("config", "peak_bytes", "ticks"), self.rows)


def run_hybrid_ablation(scale: float = 0.5,
                        thresholds: Sequence[int] = (4, 8, 13, 16, 24, 32),
                        ) -> HybridResult:
    """Sweep the hybrid conversion threshold on TVLA's map contexts.

    Reproduces the section 2.3 finding: a threshold above the actual map
    sizes behaves like the pure array map (low footprint, small time
    cost); a threshold below them converts every map to a HashMap and
    recovers the original footprint.
    """
    tool = _tool()
    workload = TvlaWorkload(scale=scale)
    session = tool.profile(workload)
    map_contexts = [s for s in session.suggestions
                    if s.profile.src_type == "HashMap"]

    def policy_with(impl: str, **impl_kwargs) -> ReplacementMap:
        policy = ReplacementMap()
        for suggestion in map_contexts:
            policy.set_choice(
                suggestion.profile.key, "HashMap",
                ImplementationChoice(impl, impl_kwargs=impl_kwargs or None))
        return policy

    rows: List[Tuple[str, int, int]] = []
    _, base = tool.plain_run(workload)
    rows.append(("HashMap (original)", base.peak_live_bytes, base.ticks))
    _, pure = tool.plain_run(workload, policy=policy_with("ArrayMap"))
    rows.append(("ArrayMap (offline fix)", pure.peak_live_bytes, pure.ticks))
    for threshold in thresholds:
        policy = policy_with("SizeAdaptingMap",
                             conversion_threshold=threshold)
        _, metrics = tool.plain_run(workload, policy=policy)
        rows.append((f"SizeAdapting@{threshold}", metrics.peak_live_bytes,
                     metrics.ticks))
    return HybridResult(rows=rows)


# ---------------------------------------------------------------------------
# Profiling overhead -- the paper's "low-overhead" claim
# ---------------------------------------------------------------------------
@dataclass
class OverheadResult:
    """Instrumentation overhead per benchmark and profiling mode."""

    rows: List[ExperimentRow]

    def overhead(self, benchmark: str, mode: str) -> float:
        for row in self.rows:
            if row.benchmark == benchmark and row.metric == mode:
                return row.measured
        raise KeyError((benchmark, mode))

    def render(self) -> str:
        return render_table(
            "Profiling overhead (sections 4.2-4.4)", self.rows)


def run_profiling_overhead(scale: float = 0.4,
                           benchmarks: Optional[Sequence] = None,
                           ) -> OverheadResult:
    """Measure the three instrumentation postures of section 4:

    * *vm-only* -- the collection-aware GC gathers its statistics "with
      virtually no additional cost" (section 4.4) because they ride the
      normal marking phase: library tracking is off, so no contexts are
      captured.
    * *sampled* -- library tracking at a 1-in-8 context sampling rate
      (section 4.2's mitigation).
    * *full* -- every allocation captured and profiled.
    """
    from repro.runtime.host_gc import host_collector_paused
    from repro.runtime.sampling import (AlwaysSample, NeverSample,
                                        RateSampler)
    from repro.profiler.profiler import SemanticProfiler

    tool = _tool()
    rows: List[ExperimentRow] = []
    for workload_class in (benchmarks or (TvlaWorkload,)):
        workload = workload_class(scale=scale)
        _, plain = tool.plain_run(workload)

        def instrumented_ticks(sampling) -> int:
            # A fresh instance per posture: reusing one workload object
            # across the vm-only/sampled/full runs would let instance
            # state bleed between postures and skew the comparison.
            # Run like the drivers: host collector paused, VM released.
            with host_collector_paused():
                vm = tool.make_vm(profiler=SemanticProfiler(sampling))
                try:
                    workload.fresh().run(vm)
                    vm.finish()
                    return vm.now
                finally:
                    vm.release()

        name = workload.name
        for mode, sampling in (
                ("vm-only overhead", NeverSample()),
                ("sampled (1/8) overhead", RateSampler(8)),
                ("full-profiling overhead", AlwaysSample())):
            ticks = instrumented_ticks(sampling)
            rows.append(ExperimentRow(
                name, mode, None, ticks / plain.ticks - 1.0,
                note=f"{ticks} vs {plain.ticks} ticks"))
    return OverheadResult(rows=rows)


# ---------------------------------------------------------------------------
# Everything
# ---------------------------------------------------------------------------
def run_all(scale: float = 0.5, resolution: int = 8192, jobs: int = 1,
            scheduler: Optional[Scheduler] = None) -> str:
    """Run every experiment and return the combined report text.

    ``jobs > 1`` (or an explicit ``scheduler``) fans the independent
    Fig. 6 / Fig. 7 work out across a process pool; because every job is
    deterministic and results merge in job order, the report text is
    byte-identical at any parallelism.  The session cache additionally
    keeps the per-process profiles shared across figures.
    """
    owns_scheduler = scheduler is None
    scheduler = scheduler or Scheduler(jobs=jobs)
    try:
        parts = [
            run_fig2(scale=scale).render(),
            run_fig3(scale=scale).render(),
            run_fig6(scale=scale, resolution=resolution,
                     scheduler=scheduler).render(),
            run_fig7(scale=scale, resolution=resolution,
                     scheduler=scheduler).render(),
            run_fig8(scale=scale).render(),
            run_online(scale=scale).render(),
            run_hybrid_ablation(scale=scale).render(),
            run_profiling_overhead(scale=scale).render(),
        ]
    finally:
        if owns_scheduler:
            scheduler.close()
    return "\n\n".join(parts)
