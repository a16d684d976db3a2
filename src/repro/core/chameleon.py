"""The Chameleon tool facade: profile -> suggest -> apply -> re-run.

This is the automation of the paper's methodology (section 5.2):

1. Run the application under semantic profiling (:meth:`Chameleon.profile`).
2. Evaluate the selection rules over the per-context statistics; rank the
   suggestions by saving potential.
3. Build a :class:`~repro.core.apply.ReplacementMap` from the top
   suggestions and re-run the *uninstrumented* application with it
   (:meth:`Chameleon.plain_run`), comparing ticks and peak footprint.

:meth:`Chameleon.optimize` chains all three and returns a before/after
comparison, which is what the Fig. 6 / Fig. 7 benchmarks drive.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.apply import ReplacementMap
from repro.core.config import ToolConfig
from repro.memory.heap import OutOfMemoryError
from repro.profiler.profiler import SemanticProfiler
from repro.profiler.report import ProfileReport, build_report
from repro.rules.builtin import BUILTIN_RULES, RuleSpec
from repro.rules.engine import RuleEngine
from repro.rules.suggestions import Suggestion
from repro.runtime.host_gc import host_collector_paused
from repro.runtime.sampling import AlwaysSample, RateSampler
from repro.runtime.vm import ReplacementPolicyProtocol, RuntimeEnvironment
from repro.workloads.base import Workload

__all__ = ["RunMetrics", "ProfilingSession", "OptimizationResult",
           "SessionCache", "Chameleon", "IterativeResult",
           "optimize_iteratively", "rules_digest"]


@dataclass(frozen=True)
class RunMetrics:
    """Outcome measures of one workload run."""

    ticks: int
    peak_live_bytes: int
    gc_cycles: int
    total_allocated_bytes: int
    total_allocated_objects: int
    completed: bool

    @classmethod
    def from_vm(cls, vm: RuntimeEnvironment,
                completed: bool = True) -> "RunMetrics":
        """Snapshot the metrics of a finished (or OOM-ed) run."""
        return cls(ticks=vm.now,
                   peak_live_bytes=vm.timeline.max_live_data,
                   gc_cycles=vm.timeline.cycle_count,
                   total_allocated_bytes=vm.heap.total_allocated_bytes,
                   total_allocated_objects=vm.heap.total_allocated_objects,
                   completed=completed)


@dataclass
class ProfilingSession:
    """Everything produced by one profiled run.

    ``vm`` is the finished run's runtime, already released
    (:meth:`RuntimeEnvironment.release`): its profiler, timeline,
    contexts, clock and heap shape are still readable, but it holds no
    collection and cannot run further.  It is ``None`` when the session
    came out of a :class:`SessionCache` -- the runtime is deliberately
    not cached; every other field is.
    """

    vm: Optional[RuntimeEnvironment]
    report: ProfileReport
    suggestions: List[Suggestion]
    metrics: RunMetrics

    def render(self, top: int = 4) -> str:
        """Tool output: top contexts plus ranked suggestions."""
        parts = [self.report.render_top_contexts(top),
                 "",
                 RuleEngine.render(self.suggestions, limit=top)]
        return "\n".join(parts)


@dataclass
class OptimizationResult:
    """Before/after comparison produced by :meth:`Chameleon.optimize`."""

    session: ProfilingSession
    policy: ReplacementMap
    baseline: RunMetrics
    optimized: RunMetrics

    @property
    def peak_reduction(self) -> float:
        """Fractional reduction of peak live footprint (0.2 = 20%)."""
        if self.baseline.peak_live_bytes == 0:
            return 0.0
        return 1.0 - (self.optimized.peak_live_bytes
                      / self.baseline.peak_live_bytes)

    @property
    def time_reduction(self) -> float:
        """Fractional reduction of virtual running time."""
        if self.baseline.ticks == 0:
            return 0.0
        return 1.0 - self.optimized.ticks / self.baseline.ticks

    @property
    def speedup(self) -> float:
        """Baseline ticks / optimized ticks."""
        if self.optimized.ticks == 0:
            return 1.0
        return self.baseline.ticks / self.optimized.ticks

    def render(self) -> str:
        """One-paragraph summary of the optimisation outcome."""
        return (f"applied {len(self.policy)} context fixes: peak footprint "
                f"{self.baseline.peak_live_bytes} -> "
                f"{self.optimized.peak_live_bytes} bytes "
                f"({100 * self.peak_reduction:.1f}% saved), time "
                f"{self.baseline.ticks} -> {self.optimized.ticks} ticks "
                f"({self.speedup:.2f}x)")


def rules_digest(rules: Sequence[RuleSpec]) -> str:
    """A stable digest of what a rule set suggests: each spec's name,
    rule, category, message and gates, in order.  ``origin`` is left
    out; it only points lint findings at the rule's source."""
    canonical = repr([(spec.name, repr(spec.rule), spec.category.value,
                       spec.message, spec.requires_stable_size,
                       spec.space_gated) for spec in rules])
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


_BUILTIN_RULES_DIGEST = rules_digest(BUILTIN_RULES)


class SessionCache:
    """Profiling-session cache keyed by what determines a profiled run.

    Every figure of the evaluation starts by profiling a workload, and
    Fig. 3, Fig. 6, Fig. 7 and the hybrid ablation all profile the *same*
    workloads under the *same* configuration -- deterministic runs, so
    re-profiling reproduces the identical session.  The cache key is
    ``(workload class, seed, scale, manual_fixes, ToolConfig
    fingerprint, rule-set digest)``; runs under a policy or an explicit
    heap limit are never cached (their outcome depends on objects that
    do not fingerprint).

    Cached sessions are stored with ``vm=None`` -- the runtime is
    the one piece of a session that is neither comparable nor picklable,
    and no experiment consumer reads it.  Because storage is trimmed, a
    :class:`~repro.analysis.index.SessionStore` directory can be
    attached behind the cache (:meth:`attach_store`), which is how
    sessions are shared across scheduler workers and CLI invocations.
    """

    def __init__(self) -> None:
        self._entries: dict = {}
        self._backing = None
        self.hits = 0
        self.misses = 0
        self.store_hits = 0

    @staticmethod
    def key(config: ToolConfig, workload: Workload,
            rules: str = _BUILTIN_RULES_DIGEST) -> tuple:
        """The cache key for profiling ``workload`` under ``config`` with
        the rule set whose :func:`rules_digest` is ``rules``."""
        cls = type(workload)
        return (f"{cls.__module__}.{cls.__qualname__}", workload.seed,
                workload.scale, workload.manual_fixes, config.fingerprint(),
                rules)

    def attach_store(self, store) -> None:
        """Attach a content-addressed backing store (read-through on
        miss, write-through on :meth:`put`), or detach it with ``None``
        (in-memory entries are kept).

        This is how scheduler workers share sessions without re-pickling
        them wholesale: each entry crosses process boundaries exactly
        once, as its own content-addressed file, and every other worker
        reads it back by key instead of recomputing the profile.
        """
        self._backing = store

    @property
    def backing_store(self):
        """The attached store, or ``None``."""
        return self._backing

    def get(self, key: tuple) -> Optional["ProfilingSession"]:
        """The cached session, counting the lookup as a hit or miss.

        A miss in memory falls through to the backing store when one is
        attached; a store hit is counted as a hit (and separately in
        ``store_hits``) and promoted into memory.
        """
        session = self._entries.get(key)
        if session is None and self._backing is not None:
            session = self._backing.get(key)
            if session is not None:
                self._entries[key] = session
                self.store_hits += 1
        if session is None:
            self.misses += 1
        else:
            self.hits += 1
        return session

    def put(self, key: tuple, session: "ProfilingSession") -> None:
        """Store a trimmed (``vm=None``) copy of ``session``."""
        trimmed = dataclasses.replace(session, vm=None)
        self._entries[key] = trimmed
        if self._backing is not None:
            self._backing.put(key, trimmed)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters.

        An attached backing store stays attached (and keeps its files):
        clearing resets this *process's* view, not the shared store.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.store_hits = 0


class Chameleon:
    """Offline Chameleon: semantic profiling plus the rule engine."""

    def __init__(self, config: Optional[ToolConfig] = None,
                 rules: Optional[List[RuleSpec]] = None,
                 session_cache: Optional[SessionCache] = None) -> None:
        self.config = config or ToolConfig()
        self.session_cache = session_cache
        self.engine = RuleEngine(
            rules=rules,
            constants=self.config.constants,
            stability=self.config.stability,
            min_potential_bytes=self.config.min_potential_bytes)
        self.rules_digest = rules_digest(self.engine.rules)

    # ------------------------------------------------------------------
    # VM construction
    # ------------------------------------------------------------------
    def make_vm(self, profiler: Optional[SemanticProfiler] = None,
                policy: Optional[ReplacementPolicyProtocol] = None,
                heap_limit: Optional[int] = None) -> RuntimeEnvironment:
        """A runtime configured per the tool settings.

        Without instrumentation -- no profiler, and no policy that
        decides during the run -- its collector counts instead of
        attributing (:mod:`repro.memory.gc`): such a run reads only
        ticks, peak live data and cycle counts (:class:`RunMetrics`),
        which counting leaves identical.
        """
        attribute = profiler is not None or (
            policy is not None and policy.requires_runtime_capture)
        return RuntimeEnvironment(
            model=self.config.memory_model,
            cost_model=self.config.cost_model,
            heap_limit=heap_limit,
            gc_threshold_bytes=self.config.gc_threshold_bytes,
            context_depth=self.config.context_depth,
            profiler=profiler,
            policy=policy,
            gc_attribution=attribute)

    def _make_profiler(self) -> SemanticProfiler:
        if self.config.sampling_rate <= 1:
            sampling = AlwaysSample()
        else:
            sampling = RateSampler(self.config.sampling_rate,
                                   warmup=self.config.sampling_warmup)
        return SemanticProfiler(sampling)

    # ------------------------------------------------------------------
    # Phase 1+2: semantic profiling and rule evaluation
    # ------------------------------------------------------------------
    def profile(self, workload: Workload,
                heap_limit: Optional[int] = None,
                policy: Optional[ReplacementMap] = None) -> ProfilingSession:
        """Run ``workload`` under profiling and evaluate the rules.

        ``policy`` profiles the *modified* program -- the paper's step 4,
        "repeat steps 1-3 on the modified version".

        When a :class:`SessionCache` is installed, plain profiled runs
        (no policy, no heap limit) are served from it; cache hits return
        a session with ``vm=None``.  Workloads are deterministic, so the
        cached session is identical to what re-profiling would produce.
        A profiled run pauses CPython's cyclic collector as
        :meth:`plain_run` does.
        """
        cache_key = None
        if (self.session_cache is not None and policy is None
                and heap_limit is None):
            cache_key = SessionCache.key(self.config, workload,
                                         self.rules_digest)
            cached = self.session_cache.get(cache_key)
            if cached is not None:
                return cached
        with host_collector_paused():
            vm = self.make_vm(profiler=self._make_profiler(),
                              heap_limit=heap_limit)
            try:
                if policy is not None:
                    vm.policy = policy.bind(vm)
                workload.run(vm)
                vm.finish()
                report = build_report(vm.profiler, vm.timeline, vm.contexts)
            finally:
                vm.release()
        suggestions = self.engine.evaluate(report)
        session = ProfilingSession(vm=vm, report=report,
                                   suggestions=suggestions,
                                   metrics=RunMetrics.from_vm(vm))
        if cache_key is not None:
            self.session_cache.put(cache_key, session)
        return session

    # ------------------------------------------------------------------
    # Phase 3: application and plain runs
    # ------------------------------------------------------------------
    def build_policy(self, suggestions: List[Suggestion],
                     top: Optional[int] = None) -> ReplacementMap:
        """Turn ranked suggestions into an offline replacement policy."""
        if top is None:
            top = self.config.top_contexts_to_apply
        return ReplacementMap.from_suggestions(suggestions, top=top)

    def plain_run(self, workload: Workload,
                  policy: Optional[ReplacementMap] = None,
                  heap_limit: Optional[int] = None,
                  ) -> Tuple[RuntimeEnvironment, RunMetrics]:
        """Run ``workload`` without instrumentation (the Fig. 7 timing
        configuration), optionally under an applied policy.

        Raises :class:`OutOfMemoryError` if ``heap_limit`` is too small;
        the minimal-heap search relies on that.  The VM is released
        (:meth:`RuntimeEnvironment.release`) whether the run completes
        or runs out of memory, and CPython's cyclic collector is paused
        from VM construction to the release
        (:func:`~repro.runtime.host_gc.host_collector_paused`), then left
        as the caller had it.
        """
        with host_collector_paused():
            vm = self.make_vm(heap_limit=heap_limit)
            try:
                if policy is not None:
                    vm.policy = policy.bind(vm)
                workload.run(vm)
                vm.finish()
                return vm, RunMetrics.from_vm(vm)
            finally:
                vm.release()

    def optimize(self, workload: Workload,
                 top: Optional[int] = None) -> OptimizationResult:
        """Full pipeline: profile, suggest, apply, measure before/after."""
        session = self.profile(workload)
        policy = self.build_policy(session.suggestions, top=top)
        _, baseline = self.plain_run(workload)
        _, optimized = self.plain_run(workload, policy=policy)
        return OptimizationResult(session=session, policy=policy,
                                  baseline=baseline, optimized=optimized)


@dataclass
class IterativeResult:
    """Outcome of the paper's iterative methodology (section 5.2 step 4):
    profile, apply the top suggestions, and repeat on the modified
    program until nothing changes."""

    sessions: List[ProfilingSession]
    policy: ReplacementMap
    baseline: RunMetrics
    optimized: RunMetrics
    converged: bool

    @property
    def rounds(self) -> int:
        """Profiling rounds performed."""
        return len(self.sessions)

    @property
    def peak_reduction(self) -> float:
        """Fractional reduction of peak live footprint."""
        if self.baseline.peak_live_bytes == 0:
            return 0.0
        return 1.0 - (self.optimized.peak_live_bytes
                      / self.baseline.peak_live_bytes)

    def render(self) -> str:
        """One-paragraph summary of the iteration."""
        status = "converged" if self.converged else "round limit reached"
        return (f"{self.rounds} rounds ({status}): "
                f"{len(self.policy)} context fixes, peak "
                f"{self.baseline.peak_live_bytes} -> "
                f"{self.optimized.peak_live_bytes} bytes "
                f"({100 * self.peak_reduction:.1f}% saved)")


def optimize_iteratively(tool: "Chameleon", workload: Workload,
                         top_per_round: Optional[int] = None,
                         max_rounds: int = 4) -> IterativeResult:
    """Drive the section 5.2 loop: "Modify the top allocation contexts
    using the tool suggestions ... Repeat steps 1-3 on the modified
    version."

    Each round profiles the program *with the accumulated fixes applied*,
    folds the new round's top suggestions into the policy (capacity advice
    combines with earlier replacements), and stops once a round changes
    nothing.

    Args:
        tool: The configured offline tool.
        workload: The program under optimisation.
        top_per_round: How many ranked suggestions each round applies
            (the paper modified only the top handful per pass); ``None``
            applies all.
        max_rounds: Safety bound on profiling rounds.
    """
    policy = ReplacementMap()
    sessions: List[ProfilingSession] = []
    converged = False
    for _ in range(max_rounds):
        session = tool.profile(workload, policy=policy)
        sessions.append(session)
        changed = policy.merge_suggestions(session.suggestions,
                                           top=top_per_round)
        if changed == 0:
            converged = True
            break
    _, baseline = tool.plain_run(workload)
    _, optimized = tool.plain_run(workload, policy=policy)
    return IterativeResult(sessions=sessions, policy=policy,
                           baseline=baseline, optimized=optimized,
                           converged=converged)


# Attach as a method so the facade mirrors the paper's workflow verbatim.
Chameleon.optimize_iteratively = (  # type: ignore[attr-defined]
    lambda self, workload, top_per_round=None, max_rounds=4:
    optimize_iteratively(self, workload, top_per_round=top_per_round,
                         max_rounds=max_rounds))
