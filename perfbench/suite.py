"""The four benchmark workloads.

Each is a closed loop driven by one client: the next unit starts when the
previous one returns.  A workload sets itself up once (everything a user
pays before the first result, including one untimed warm-up unit), then
runs units; every unit's output is checked against the paper-shape
bounds the repository already asserts, and units fed the same input must
give identical simulated outputs within a run.

Each unit also reports the three simulated end-to-end figures:

* ``heap_saved_pct`` -- heap saved by the tool's advice;
* ``sim_speedup_x`` -- baseline ticks over the tool-chosen run's ticks;
* ``sim_overhead_x`` -- instrumented ticks over plain ticks.

Where a workload runs both configurations of a figure it reports its own
runs; where it does not, the figure comes from a standard
``Chameleon.optimize`` of the programs it covers, run during set-up.
Each workload's docstring says which.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import shutil
import statistics
import tempfile
from collections import Counter
from typing import Dict, List, Tuple

from repro import Chameleon, OnlineChameleon, ToolConfig
from repro.workloads import BENCHMARKS, default_workload_registry

#: Workload seeds are drawn from this many per benchmark seed and cycled.
SEED_CYCLE = 4


@dataclasses.dataclass
class UnitResult:
    """One unit's simulated outputs."""

    key: object
    """The unit's input; units with equal keys must give equal outputs."""
    signature: object
    """Every simulated output the identity check compares."""
    sim_ticks: int
    heap_saved_pct: float
    sim_speedup_x: float
    sim_overhead_x: float
    counts: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def derive_seeds(seed: int) -> List[int]:
    """The fixed workload-seed cycle of one benchmark seed."""
    return random.Random(seed).sample(range(1, 1 << 20), SEED_CYCLE)


def _suggestion_rows(suggestions) -> tuple:
    return tuple((s.profile.render_context(), s.rule.text,
                  s.potential_bytes) for s in suggestions)


class BenchWorkload:
    """Set-up plus a unit function."""

    name = ""

    def setup(self, seed: int, out_dir: str) -> None:
        raise NotImplementedError

    def unit(self, index: int) -> UnitResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up started."""


class OfflineTvla(BenchWorkload):
    """Back-to-back ``Chameleon.optimize`` on TVLA.

    All three simulated figures come from the unit's own runs: peak
    reduction, baseline over optimized ticks, profiled over baseline
    ticks.
    """

    name = "offline_tvla"
    scale = 0.05

    def setup(self, seed: int, out_dir: str) -> None:
        from repro.workloads import TvlaWorkload

        self.workload_class = TvlaWorkload
        self.seeds = derive_seeds(seed)
        self.tool = Chameleon()

    def unit(self, index: int) -> UnitResult:
        seed = self.seeds[index % len(self.seeds)]
        result = self.tool.optimize(
            self.workload_class(seed=seed, scale=self.scale))
        session = result.session
        problems = []
        # tests/core/test_chameleon.py::
        # test_optimize_improves_footprint_and_time
        if len(result.policy) < 1:
            problems.append("no context fix applied")
        if not result.peak_reduction > 0.2:
            problems.append(f"peak reduction {result.peak_reduction:.3f} "
                            f"<= 0.2")
        if not result.speedup > 1.0:
            problems.append(f"speedup {result.speedup:.3f} <= 1")
        if not (session.metrics.completed and result.optimized.completed):
            problems.append("a run did not complete")
        return UnitResult(
            key=seed,
            signature=(session.metrics, result.baseline, result.optimized,
                       _suggestion_rows(session.suggestions)),
            sim_ticks=(session.metrics.ticks + result.baseline.ticks
                       + result.optimized.ticks),
            heap_saved_pct=100.0 * result.peak_reduction,
            sim_speedup_x=result.speedup,
            sim_overhead_x=session.metrics.ticks / result.baseline.ticks,
            problems=problems)


class OnlinePmd(BenchWorkload):
    """Back-to-back ``OnlineChameleon.run`` on PMD with live retrofit.

    Figures from the unit's own online and baseline runs.  PMD's peak
    live set does not shrink online (the paper reports no reduction), so
    ``heap_saved_pct`` is the saving in bytes allocated, the heap traffic
    the online choices remove; ``sim_speedup_x`` is baseline over online
    ticks and ``sim_overhead_x`` the online slowdown.
    """

    name = "online_pmd"
    scale = 0.02

    def setup(self, seed: int, out_dir: str) -> None:
        from repro.workloads import PmdWorkload

        self.workload_class = PmdWorkload
        self.seeds = derive_seeds(seed)
        self.tool = OnlineChameleon(ToolConfig(online_retrofit_live=True))

    def unit(self, index: int) -> UnitResult:
        seed = self.seeds[index % len(self.seeds)]
        result = self.tool.run(
            self.workload_class(seed=seed, scale=self.scale))
        online, baseline = result.online, result.baseline
        problems = []
        # benchmarks/test_online_mode.py
        if not result.slowdown >= 3.5:
            problems.append(f"online slowdown {result.slowdown:.3f} < 3.5")
        if not result.peak_reduction <= 0.05:
            problems.append(f"online peak saving "
                            f"{result.peak_reduction:.3f} > 0.05")
        if not (online.completed and baseline.completed):
            problems.append("a run did not complete")
        policy = result.policy
        return UnitResult(
            key=seed,
            signature=(online, baseline, policy.decisions_made,
                       policy.replacements_chosen, policy.retrofitted),
            sim_ticks=online.ticks + baseline.ticks,
            heap_saved_pct=100.0 * (1.0 - online.total_allocated_bytes
                                    / baseline.total_allocated_bytes),
            sim_speedup_x=baseline.ticks / online.ticks,
            sim_overhead_x=result.slowdown,
            counts={"core.online.decisions": policy.decisions_made},
            problems=problems)


class MinheapSuite(BenchWorkload):
    """``run_fig6`` then ``run_fig7`` on one scheduler pool.

    ``heap_saved_pct`` is the mean Fig. 6 min-heap saving over the six
    benchmarks and ``sim_speedup_x`` the geometric-mean Fig. 7 speedup.
    The suite profiles nothing it could report an overhead for, so
    ``sim_overhead_x`` is the geometric mean of profiled over plain
    ticks from ``optimize`` of the six benchmarks, run during set-up.
    Simulated ticks per pass are counted once, on the warm-up pass, from
    its unprofiled runs: later passes find every profile in the session
    store, so their runs are exactly those.  The pool and the session
    store live for the whole run, as in ``perf --suite``.
    """

    name = "minheap_suite"
    pooled = True
    scale = 0.05
    resolution = 8192

    def setup(self, seed: int, out_dir: str) -> None:
        from repro.analysis import experiments
        from repro.analysis.scheduler import JobGraph, Scheduler

        self.experiments = experiments
        self.store = tempfile.mkdtemp(prefix="store-", dir=out_dir)
        experiments.reset_session_cache()
        experiments.attach_session_store(self.store)
        nproc = len(os.sched_getaffinity(0))
        self.scheduler = Scheduler(
            jobs=min(2, nproc),
            warmup=(experiments.warm_worker, (self.store,)))
        # An empty graph spawns the pool now, so its workers fork before
        # anything below installs a wrapper.
        self.scheduler.run(JobGraph())
        tool = Chameleon()
        self.setup_overhead = geomean(
            (r.session.metrics.ticks / r.baseline.ticks)
            for r in (tool.optimize(cls(scale=self.scale))
                      for cls in BENCHMARKS))
        self.pass_ticks = None

    def _counted_pass(self):
        """The warm-up pass, with only the job boundary traced to count
        its simulated ticks; the passes that follow run with every
        wrapper removed, in the parent and in the workers."""
        import spans

        rec = spans.recorder()
        rec.reset(root=None, unit=None)
        spans.install({spans.SCHEDULER_BOUNDARY})
        try:
            figures = self._pass()
        finally:
            spans.uninstall()
        self.pass_ticks = rec.counts["runtime.sim_ticks.unprofiled"]
        rec.reset(root=None, unit=None)
        return figures

    def _pass(self):
        experiments = self.experiments
        fig6 = experiments.run_fig6(scale=self.scale,
                                    resolution=self.resolution,
                                    scheduler=self.scheduler)
        fig7 = experiments.run_fig7(scale=self.scale,
                                    resolution=self.resolution,
                                    scheduler=self.scheduler)
        return fig6, fig7

    def unit(self, index: int) -> UnitResult:
        from repro.analysis.experiments import PAPER_FIG6

        fig6, fig7 = (self._pass() if self.pass_ticks is not None
                      else self._counted_pass())
        saved = {name: fig6.reduction(name) for name in PAPER_FIG6}
        speedups = {row.benchmark: row.measured for row in fig7.rows}
        return UnitResult(
            key=None,
            signature=(tuple(dataclasses.astuple(r) for r in fig6.rows),
                       fig6.details,
                       tuple(dataclasses.astuple(r) for r in fig7.rows),
                       fig7.gc_cycles),
            sim_ticks=self.pass_ticks,
            heap_saved_pct=100.0 * statistics.fmean(saved.values()),
            sim_speedup_x=geomean(speedups.values()),
            sim_overhead_x=self.setup_overhead,
            problems=_fig6_problems(saved, fig6.auto_reduction("bloat"))
            + _fig7_problems(speedups, fig7.gc_cycles["pmd"]))

    def close(self) -> None:
        self.scheduler.close()
        self.experiments.attach_session_store(None)
        self.experiments.reset_session_cache()
        shutil.rmtree(self.store, ignore_errors=True)


def _bound(problems, label, value, low=None, high=None) -> None:
    if (low is not None and not value >= low) or (
            high is not None and not value <= high):
        problems.append(f"{label} = {value:.4f} outside "
                        f"[{low if low is not None else '-inf'}, "
                        f"{high if high is not None else 'inf'}]")


def _fig6_problems(saved: Dict[str, float], bloat_auto: float) -> List[str]:
    """benchmarks/test_fig6_min_heap.py, assertion for assertion."""
    problems: List[str] = []
    if not saved["bloat"] > saved["findbugs"] > saved["fop"]:
        problems.append("fig6 order bloat > findbugs > fop broken")
    if not saved["tvla"] > saved["findbugs"] > saved["soot"]:
        problems.append("fig6 order tvla > findbugs > soot broken")
    if not min(saved["bloat"], saved["tvla"]) > 2.5 * saved["findbugs"] / 2:
        problems.append("fig6 bloat/tvla lead over findbugs too small")
    for name, low, high in (("bloat", 0.45, 0.65), ("tvla", 0.40, 0.62),
                            ("findbugs", 0.08, 0.25), ("fop", 0.04, 0.15),
                            ("soot", 0.03, 0.14), ("pmd", None, 0.03)):
        _bound(problems, f"fig6 {name} saved", saved[name], low, high)
    _bound(problems, "fig6 bloat auto saved", bloat_auto, 0.15, 0.30)
    return problems


def _fig7_problems(speedups: Dict[str, float],
                   pmd_cycles: Tuple[int, int]) -> List[str]:
    """benchmarks/test_fig7_running_time.py, assertion for assertion."""
    problems: List[str] = []
    if not all(value >= 0.97 for value in speedups.values()):
        problems.append("fig7 some benchmark regresses below 0.97x")
    if speedups["tvla"] != max(speedups.values()):
        problems.append("fig7 tvla is not the largest speedup")
    _bound(problems, "fig7 tvla speedup", speedups["tvla"], 1.7, 3.2)
    _bound(problems, "fig7 soot speedup", speedups["soot"], 1.03, 1.35)
    _bound(problems, "fig7 pmd speedup", speedups["pmd"], 1.02, 1.35)
    base_cycles, optimized_cycles = pmd_cycles
    _bound(problems, "fig7 pmd gc reduction",
           1.0 - optimized_cycles / base_cycles, 0.08, 0.30)
    return problems


#: EXPERIMENTS.md, three-way drift at scale 0.1 (tvla/pmd/bloat sessions
#: against src/repro/workloads).
EXPECTED_DRIFT = {"agreement": 2, "refuted": 3, "coverage-gap": 1,
                  "unsubstantiated": 5, "dynamic-only": 10,
                  "proposal-confirmed": 1, "proposal-new": 2}


class LintDrift(BenchWorkload):
    """Rule checking, both static layers and the three-way drift report.

    The sessions are profiled during set-up by ``optimize`` of tvla, pmd
    and bloat at scale 0.1; the simulated figures are those optimize
    runs' (mean peak reduction, geometric-mean speedup and profiling
    overhead), and ``sim_ticks`` per unit is the profiled ticks of the
    three sessions each unit analyses.
    """

    name = "lint_drift"
    scale = 0.1
    paths = ["src/repro/workloads"]

    def setup(self, seed: int, out_dir: str) -> None:
        from repro.workloads import BloatWorkload, PmdWorkload, TvlaWorkload

        tool = Chameleon()
        results = [tool.optimize(cls(scale=self.scale))
                   for cls in (TvlaWorkload, PmdWorkload, BloatWorkload)]
        self.sessions = [dataclasses.replace(r.session, vm=None)
                         for r in results]
        self.figures = (
            100.0 * statistics.fmean(r.peak_reduction for r in results),
            geomean(r.speedup for r in results),
            geomean(r.session.metrics.ticks / r.baseline.ticks
                    for r in results))
        self.session_ticks = sum(s.metrics.ticks for s in self.sessions)

    def unit(self, index: int) -> UnitResult:
        from repro.lint import (analyze_paths, check_rules,
                                lint_paths_detailed, three_way_report)
        from repro.rules.builtin import BUILTIN_RULES

        import spans

        with spans.span("lint.check_rules"):
            rule_findings = check_rules(BUILTIN_RULES)
        with spans.span("lint.usage"):
            usage_findings, predictions, _waived = \
                lint_paths_detailed(self.paths)
        with spans.span("lint.interproc"):
            report = analyze_paths(self.paths)
        with spans.span("lint.drift"):
            drift_findings, entries = three_way_report(
                predictions, self.sessions, report.classify,
                report.proposal_rows())
        tallies = Counter(entry.status for entry in entries)
        problems = []
        if dict(tallies) != EXPECTED_DRIFT:
            problems.append(f"drift tallies {dict(sorted(tallies.items()))}"
                            f" != {EXPECTED_DRIFT}")
        findings = (rule_findings + usage_findings + report.findings
                    + drift_findings)
        heap_saved, speedup, overhead = self.figures
        return UnitResult(
            key=None,
            signature=(tuple(sorted(tallies.items())),
                       tuple(f.id for f in findings), len(report.sites)),
            sim_ticks=self.session_ticks,
            heap_saved_pct=heap_saved,
            sim_speedup_x=speedup,
            sim_overhead_x=overhead,
            counts={"lint.interproc.sites": len(report.sites),
                    "lint.findings": len(findings)},
            problems=problems)


WORKLOADS = {cls.name: cls for cls in (OfflineTvla, OnlinePmd, MinheapSuite,
                                       LintDrift)}


def common_setup() -> None:
    """What every workload pays first: the registry and the rule set's
    validation."""
    from repro.lint import validate_rules
    from repro.rules.builtin import BUILTIN_RULES

    default_workload_registry()
    validate_rules(BUILTIN_RULES)
