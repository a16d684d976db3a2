"""Fully automatic (online) replacement -- section 3.3.2 / section 5.4.

In online mode the tool makes selection decisions *during* the run: the
first allocations at each context are profiled with the default
implementation; once enough instances have died, the rule engine is
evaluated on the partial statistics and the winning choice is cached --
every later allocation at that context gets the chosen implementation.

The defining cost is that the allocation context must be captured (and
the policy consulted) on *every* collection allocation, with no sampling
escape hatch.  The paper measured this as acceptable for TVLA (~35%
slowdown) and prohibitive for PMD (~6x) whose "massive rapid allocation
of short-lived collections ... amplified the cost of obtaining allocation
contexts"; the E-Online benchmark reproduces both shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.chameleon import Chameleon, RunMetrics
from repro.core.config import ToolConfig
from repro.profiler.report import ContextProfile
from repro.rules.engine import RuleEngine
from repro.rules.suggestions import Suggestion
from repro.runtime.host_gc import host_collector_paused
from repro.runtime.vm import ImplementationChoice, RuntimeEnvironment
from repro.workloads.base import Workload

__all__ = ["OnlinePolicy", "OnlineRunResult", "OnlineChameleon"]


class OnlinePolicy:
    """Replacement policy that learns its choices mid-run."""

    #: Online decisions happen at runtime, so capture must be charged.
    requires_runtime_capture = True

    def __init__(self, engine: RuleEngine, decide_after: int = 8,
                 retrofit_live: bool = False) -> None:
        self.engine = engine
        self.decide_after = decide_after
        self.retrofit_live = retrofit_live
        self.retrofitted = 0
        self._vm: Optional[RuntimeEnvironment] = None
        # context_id -> decision; None records "decided: keep default".
        self._decisions: Dict[int, Optional[ImplementationChoice]] = {}
        # context_id -> instances_allocated when the decision was taken;
        # negative decisions are revisited once the context doubles.
        self._decided_at: Dict[int, int] = {}
        self.decisions_made = 0
        self.replacements_chosen = 0

    def bind(self, vm: RuntimeEnvironment) -> "OnlinePolicy":
        """Attach to the running VM (for profiler/timeline access)."""
        self._vm = vm
        return self

    # ------------------------------------------------------------------
    # ReplacementPolicyProtocol
    # ------------------------------------------------------------------
    def choose(self, src_type: str, context_id: Optional[int],
               ) -> Optional[ImplementationChoice]:
        if context_id is None or self._vm is None:
            return None
        decided = context_id in self._decisions
        if decided:
            cached = self._decisions[context_id]
            if cached is not None:
                return cached
        info = self._vm.profiler.context_info(context_id)
        if decided and (info is None or info.instances_allocated
                        < 2 * self._decided_at[context_id]):
            # A keep-default decision taken on partial information is
            # revisited once the context has doubled its population --
            # the paper's "lack of stability" concern (section 3.3.2):
            # early evidence may not represent the context's behaviour.
            return None
        if info is None:
            return None
        # Two ways to reach a decision point (section 3.3.2's "partial
        # information"): enough instances have *died* (full usage
        # profiles), or -- for long-lived collections that never die, like
        # TVLA's abstract-state maps -- enough live instances have been
        # observed by at least one GC cycle.
        dead_ready = info.instances_dead >= self.decide_after
        live_ready = (info.instances_allocated >= self.decide_after
                      and self._vm.timeline.context(context_id) is not None)
        if not (dead_ready or live_ready):
            return None  # still observing with the default implementation
        snapshot = (info if dead_ready
                    else self._vm.profiler.snapshot_context(context_id))
        suggestion = self._decide(context_id, src_type, snapshot)
        choice = suggestion.to_choice() if suggestion is not None else None
        self._decisions[context_id] = choice
        self._decided_at[context_id] = max(info.instances_allocated, 1)
        self.decisions_made += 1
        if choice is not None:
            self.replacements_chosen += 1
            if self.retrofit_live:
                self._retrofit(context_id, src_type, choice)
        return choice

    def _retrofit(self, context_id: int, src_type: str,
                  choice: ImplementationChoice) -> None:
        """Swap already-live instances of a decided context.

        This goes beyond the paper's implementation (which only affects
        *new* allocations) toward its section 3.3.2 vision of specialising
        long-lived framework state: wrappers make the swap safe, and the
        migration cost is charged through normal collection operations.
        """
        if choice.impl_name is None:
            return
        from repro.collections.base import UnsupportedOperation
        from repro.collections.wrappers import ChameleonCollection

        for obj in list(self._vm.heap.objects()):
            payload = obj.payload
            if not isinstance(payload, ChameleonCollection):
                continue
            if (payload.heap_obj is not obj
                    or payload.context_id != context_id
                    or payload.src_type != src_type
                    or payload.impl.IMPL_NAME == choice.impl_name):
                continue
            try:
                payload.swap_to(choice.impl_name)
            except UnsupportedOperation:
                continue
            self.retrofitted += 1

    def _decide(self, context_id: int, src_type: str,
                info) -> Optional[Suggestion]:
        """Evaluate the rules on the context's (partial) statistics."""
        vm = self._vm
        try:
            key = vm.contexts.describe(context_id)
        except KeyError:
            key = None
        try:
            from repro.collections.registry import default_registry
            kind = default_registry().kind_of(info.src_type)
        except KeyError:
            kind = None
        profile = ContextProfile(context_id=context_id, key=key, info=info,
                                 heap=vm.timeline.context(context_id),
                                 kind=kind)
        return self.engine.evaluate_context(profile)

    @property
    def decisions(self) -> Dict[int, Optional[ImplementationChoice]]:
        """Decided contexts (choice or explicit keep-default)."""
        return dict(self._decisions)


@dataclass
class OnlineRunResult:
    """Outcome of one fully automatic run, with its reference runs."""

    online: RunMetrics
    baseline: RunMetrics
    policy: OnlinePolicy

    @property
    def slowdown(self) -> float:
        """Online ticks / uninstrumented-baseline ticks (>= 1 expected)."""
        if self.baseline.ticks == 0:
            return 1.0
        return self.online.ticks / self.baseline.ticks

    @property
    def peak_reduction(self) -> float:
        """Fractional footprint saving of the online run vs baseline."""
        if self.baseline.peak_live_bytes == 0:
            return 0.0
        return 1.0 - self.online.peak_live_bytes / self.baseline.peak_live_bytes

    def render(self) -> str:
        """One-line summary (the section 5.4 measures)."""
        return (f"online: slowdown {self.slowdown:.2f}x, peak "
                f"{self.online.peak_live_bytes} vs baseline "
                f"{self.baseline.peak_live_bytes} bytes "
                f"({100 * self.peak_reduction:.1f}% saved), "
                f"{self.policy.replacements_chosen} contexts replaced")


class OnlineChameleon:
    """Drives fully automatic in-run replacement."""

    def __init__(self, config: Optional[ToolConfig] = None) -> None:
        self.config = config or ToolConfig()
        self._offline = Chameleon(self.config)

    def run(self, workload: Workload,
            heap_limit: Optional[int] = None,
            with_baseline: bool = True) -> OnlineRunResult:
        """Run ``workload`` in fully automatic mode.

        The online run profiles every allocation (no sampling -- the
        policy needs complete per-context data) and consults the learning
        policy at each collection allocation.  When ``with_baseline`` is
        set, an uninstrumented default run provides the slowdown
        reference.  Both runs pause CPython's cyclic collector as
        :meth:`Chameleon.plain_run` does.
        """
        vm, metrics, policy = self._run_online(workload, heap_limit)
        if with_baseline:
            _, baseline = self._offline.plain_run(workload,
                                                  heap_limit=heap_limit)
        else:
            baseline = metrics
        return OnlineRunResult(online=metrics, baseline=baseline,
                               policy=policy)

    def _run_online(self, workload: Workload, heap_limit: Optional[int],
                    ) -> Tuple[RuntimeEnvironment, RunMetrics, OnlinePolicy]:
        from repro.profiler.profiler import SemanticProfiler

        policy = OnlinePolicy(self._offline.engine,
                              decide_after=self.config.online_decide_after,
                              retrofit_live=self.config.online_retrofit_live)
        with host_collector_paused():
            vm = self._offline.make_vm(profiler=SemanticProfiler(),
                                       policy=policy, heap_limit=heap_limit)
            policy.bind(vm)
            try:
                workload.run(vm)
                vm.finish()
                return vm, RunMetrics.from_vm(vm), policy
            finally:
                vm.release()
