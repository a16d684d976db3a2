"""Trace-compiled workloads: the scenario library beyond the paper six.

Every workload here is driven by a :class:`~repro.verify.compile.CompiledProgram`
-- a recorded trace lowered once into executable steps -- rather than by
hand-written driver code.  The bundled source traces under
``src/repro/workloads/scenarios/`` were recorded from the paper
benchmarks themselves (``PYTHONHASHSEED=2009``; provenance in each
file's ``meta.scenario_source``), so the scenarios inherit real recorded
op mixes and then bend them along axes the six benchmarks do not cover:

* **replay family** (:class:`CompiledTraceWorkload`) -- the trace
  re-executed for several rounds, later rounds value-perturbed, so one
  recording becomes a family of similar-but-not-identical runs.
* **heavy-tail family** (:class:`HeavyTailWorkload`) -- many instances
  whose op counts follow a Zipf-ranked distribution: a few collections
  see most of the operations while a long tail dies young.  This is the
  allocation-context shape Chameleon's per-context profiles must
  separate well.
* **phase-shift family** (:class:`PhaseShiftWorkload`) -- a quiet
  steady-state interrupted by a bloat-style mid-run spike of
  simultaneously-live instances, then quiet again; stresses
  threshold-triggered GC and size-profile stability.
* **multi-tenant family** (:class:`MultiTenantWorkload`) -- several
  compiled programs interleaved op-by-op through one VM in seeded
  bursts, so profiles from different op mixes accrue concurrently.

Determinism contract: all randomness is string-seeded from the scenario
name + workload seed (hash-independent), so every scenario run is
byte-reproducible -- the conformance harness
(``tests/verify/test_conformance.py``) holds the whole library to tick
identity across the production/reference pipeline grid and sanitizer
cleanliness, and pins :func:`~repro.verify.trace.replay_trace` of each
source trace -- the same :class:`~repro.verify.compile.TraceInstance`
executor these workloads run -- tick- and outcome-identical to the
interpretive test oracle :func:`repro.verify.oracle.reference_replay`.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.vm import RuntimeEnvironment
from repro.verify.compile import (CompiledProgram, TraceInstance,
                                  compile_trace, load_trace_file)
from repro.verify.trace import Trace
from repro.workloads.base import Workload, WorkloadRegistry

__all__ = ["CompiledTraceWorkload", "HeavyTailWorkload",
           "PhaseShiftWorkload", "MultiTenantWorkload", "Scenario",
           "SCENARIOS", "scenario_names", "get_scenario", "make_scenario",
           "register_scenarios", "bundled_trace_stems",
           "load_bundled_trace", "load_bundled_program"]

_SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")

_PROGRAM_CACHE: Dict[str, CompiledProgram] = {}


def bundled_trace_stems() -> List[str]:
    """Stems of the source traces shipped with the scenario library."""
    return sorted(name[:-5] for name in os.listdir(_SCENARIO_DIR)
                  if name.endswith(".json"))


def load_bundled_trace(stem: str) -> Trace:
    """The bundled source trace recorded as ``scenarios/<stem>.json``."""
    return load_trace_file(os.path.join(_SCENARIO_DIR, stem + ".json"))


def load_bundled_program(stem: str) -> CompiledProgram:
    """The compiled form of a bundled trace (compiled once, cached)."""
    program = _PROGRAM_CACHE.get(stem)
    if program is None:
        program = compile_trace(load_bundled_trace(stem))
        _PROGRAM_CACHE[stem] = program
    return program


class _CompiledWorkloadBase(Workload):
    """Shared plumbing for trace-driven workloads.

    Subclasses hold their compiled programs plus scenario parameters;
    ``fresh()`` reconstructs from the same configuration, which is what
    lets the perf harness re-run probes on untouched instances.
    """

    def __init__(self, programs: Tuple[CompiledProgram, ...],
                 scenario: str, seed: int = 2009, scale: float = 1.0,
                 manual_fixes: bool = False) -> None:
        super().__init__(seed=seed, scale=scale, manual_fixes=manual_fixes)
        if not programs:
            raise ValueError("at least one compiled program is required")
        self.programs = tuple(programs)
        self.name = scenario

    def source_traces(self) -> List[Trace]:
        """The recorded traces this workload compiles from -- the
        conformance harness replays these directly for comparison."""
        return [program.trace for program in self.programs]

    def round_rng(self, label: object) -> random.Random:
        """A hash-independent PRNG tied to scenario name, seed, label."""
        return random.Random(f"chameleon-compiled/{self.name}/"
                             f"{self.seed}/{label}")

    def describe(self) -> str:
        sources = "+".join(p.trace.baseline_impl for p in self.programs)
        return (f"{self.name} seed={self.seed} scale={self.scale} "
                f"[compiled: {sources}]")


class CompiledTraceWorkload(_CompiledWorkloadBase):
    """A recorded trace replayed for several value-perturbed rounds.

    Round 0 executes the program verbatim; every later round executes a
    deterministically perturbed sibling (same structure, redrawn
    primitive payloads).  Instances from finished rounds are released so
    their whole subgraph becomes garbage; the final round stays pinned
    through the closing collection, which makes the ``rounds=1,
    perturb=0`` posture execute exactly as
    :func:`repro.verify.trace.replay_trace` does.
    """

    def __init__(self, program: CompiledProgram, scenario: str,
                 rounds: int = 3, perturb: float = 0.25,
                 impl: Optional[str] = None, seed: int = 2009,
                 scale: float = 1.0, manual_fixes: bool = False) -> None:
        super().__init__((program,), scenario, seed=seed, scale=scale,
                         manual_fixes=manual_fixes)
        self.rounds = rounds
        self.perturb = perturb
        self.impl = impl

    def fresh(self) -> "CompiledTraceWorkload":
        return CompiledTraceWorkload(
            self.programs[0], self.name, rounds=self.rounds,
            perturb=self.perturb, impl=self.impl, seed=self.seed,
            scale=self.scale, manual_fixes=self.manual_fixes)

    def run(self, vm: RuntimeEnvironment) -> None:
        program = self.programs[0]
        n_rounds = self.scaled(self.rounds)
        for round_no in range(n_rounds):
            round_program = program
            if round_no > 0 and self.perturb > 0:
                round_program = program.perturbed(
                    self.round_rng(round_no), self.perturb)
            instance = TraceInstance(vm, round_program, impl=self.impl)
            instance.run()
            if round_no < n_rounds - 1:
                instance.release()
        vm.collect()


class HeavyTailWorkload(_CompiledWorkloadBase):
    """Zipf-ranked truncations of one trace: few hot, many short-lived.

    Instance at rank *r* executes roughly ``len(trace) / r**alpha`` of
    the recorded operations, so op counts follow a heavy-tailed rank
    distribution.  Most instances are released as soon as they finish
    (short-lived garbage); the first ``survivors`` stay pinned to the
    end, modelling the long-lived sliver that dominates footprint.
    """

    def __init__(self, program: CompiledProgram, scenario: str,
                 instances: int = 12, alpha: float = 1.0,
                 survivors: int = 2, perturb: float = 0.3,
                 seed: int = 2009, scale: float = 1.0,
                 manual_fixes: bool = False) -> None:
        super().__init__((program,), scenario, seed=seed, scale=scale,
                         manual_fixes=manual_fixes)
        self.instances = instances
        self.alpha = alpha
        self.survivors = survivors
        self.perturb = perturb

    def fresh(self) -> "HeavyTailWorkload":
        return HeavyTailWorkload(
            self.programs[0], self.name, instances=self.instances,
            alpha=self.alpha, survivors=self.survivors,
            perturb=self.perturb, seed=self.seed, scale=self.scale,
            manual_fixes=self.manual_fixes)

    def run(self, vm: RuntimeEnvironment) -> None:
        program = self.programs[0]
        total_ops = len(program)
        n_instances = self.scaled(self.instances)
        prefixes: Dict[int, CompiledProgram] = {}
        live: List[TraceInstance] = []
        for rank in range(1, n_instances + 1):
            length = max(2, int(total_ops * rank ** -self.alpha))
            prefix = prefixes.get(length)
            if prefix is None:
                prefix = program.prefix(length)
                prefixes[length] = prefix
            round_program = prefix
            if rank > 1 and self.perturb > 0:
                round_program = prefix.perturbed(
                    self.round_rng(rank), self.perturb)
            instance = TraceInstance(vm, round_program)
            instance.run()
            if rank <= self.survivors:
                live.append(instance)
            else:
                instance.release()
        vm.collect()
        del live  # survivors stay pinned through the final collection


class PhaseShiftWorkload(_CompiledWorkloadBase):
    """Quiet steady-state, then a bloat-style spike, then quiet again.

    The quiet phases run one instance at a time, releasing each before
    the next (flat live set).  Mid-run, ``spike`` perturbed instances
    are created and kept simultaneously live -- the footprint jump the
    bloat benchmark exhibits -- then all are released at once and a
    collection clears the wave.
    """

    def __init__(self, program: CompiledProgram, scenario: str,
                 quiet_rounds: int = 3, spike: int = 8,
                 perturb: float = 0.3, seed: int = 2009,
                 scale: float = 1.0, manual_fixes: bool = False) -> None:
        super().__init__((program,), scenario, seed=seed, scale=scale,
                         manual_fixes=manual_fixes)
        self.quiet_rounds = quiet_rounds
        self.spike = spike
        self.perturb = perturb

    def fresh(self) -> "PhaseShiftWorkload":
        return PhaseShiftWorkload(
            self.programs[0], self.name, quiet_rounds=self.quiet_rounds,
            spike=self.spike, perturb=self.perturb, seed=self.seed,
            scale=self.scale, manual_fixes=self.manual_fixes)

    def _quiet_phase(self, vm: RuntimeEnvironment, phase: str) -> None:
        program = self.programs[0]
        for round_no in range(self.scaled(self.quiet_rounds)):
            round_program = program
            if self.perturb > 0:
                round_program = program.perturbed(
                    self.round_rng(f"{phase}/{round_no}"), self.perturb)
            instance = TraceInstance(vm, round_program)
            instance.run()
            instance.release()

    def run(self, vm: RuntimeEnvironment) -> None:
        program = self.programs[0]
        self._quiet_phase(vm, "warm")
        wave = []
        for spike_no in range(self.scaled(self.spike)):
            round_program = program
            if self.perturb > 0:
                round_program = program.perturbed(
                    self.round_rng(f"spike/{spike_no}"), self.perturb)
            instance = TraceInstance(vm, round_program)
            instance.run()
            wave.append(instance)  # simultaneously live: the spike
        for instance in wave:
            instance.release()
        vm.collect()
        self._quiet_phase(vm, "cool")
        vm.collect()


class MultiTenantWorkload(_CompiledWorkloadBase):
    """Several compiled programs woven through one VM in seeded bursts.

    One :class:`TraceInstance` per program runs concurrently; a
    string-seeded scheduler repeatedly picks an unfinished tenant and
    advances it a burst of 1-7 operations, so allocation contexts and
    op mixes from different recordings interleave at op granularity --
    the concurrent-profile pressure a per-context selector has to keep
    separated.
    """

    def __init__(self, programs: Tuple[CompiledProgram, ...],
                 scenario: str, rounds: int = 2, perturb: float = 0.25,
                 seed: int = 2009, scale: float = 1.0,
                 manual_fixes: bool = False) -> None:
        super().__init__(programs, scenario, seed=seed, scale=scale,
                         manual_fixes=manual_fixes)
        self.rounds = rounds
        self.perturb = perturb

    def fresh(self) -> "MultiTenantWorkload":
        return MultiTenantWorkload(
            self.programs, self.name, rounds=self.rounds,
            perturb=self.perturb, seed=self.seed, scale=self.scale,
            manual_fixes=self.manual_fixes)

    def run(self, vm: RuntimeEnvironment) -> None:
        for round_no in range(self.scaled(self.rounds)):
            rng = self.round_rng(round_no)
            tenants = []
            for tenant_no, program in enumerate(self.programs):
                round_program = program
                if (round_no > 0 or tenant_no > 0) and self.perturb > 0:
                    round_program = program.perturbed(
                        self.round_rng(f"{round_no}/{tenant_no}"),
                        self.perturb)
                tenants.append(TraceInstance(vm, round_program))
            pending = list(range(len(tenants)))
            while pending:
                slot = rng.randrange(len(pending))
                tenant = tenants[pending[slot]]
                for _ in range(rng.randrange(1, 8)):
                    if not tenant.step():
                        break
                if tenant.finished:
                    pending.pop(slot)
            for tenant in tenants:
                tenant.release()
            vm.collect()


# ----------------------------------------------------------------------
# The named scenario library
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One registered scenario: name, family, provenance, factory."""

    name: str
    family: str           # replay | heavy-tail | phase-shift | multi-tenant
    sources: Tuple[str, ...]  # bundled trace stems
    summary: str
    factory: Callable[..., Workload]

    def create(self, **kwargs: object) -> Workload:
        return self.factory(**kwargs)


def _replay(stem: str, **params: object) -> Callable[..., Workload]:
    def factory(name: str, **kwargs: object) -> Workload:
        return CompiledTraceWorkload(load_bundled_program(stem), name,
                                     **params, **kwargs)  # type: ignore
    return factory


def _heavy_tail(stem: str, **params: object) -> Callable[..., Workload]:
    def factory(name: str, **kwargs: object) -> Workload:
        return HeavyTailWorkload(load_bundled_program(stem), name,
                                 **params, **kwargs)  # type: ignore
    return factory


def _phase_shift(stem: str, **params: object) -> Callable[..., Workload]:
    def factory(name: str, **kwargs: object) -> Workload:
        return PhaseShiftWorkload(load_bundled_program(stem), name,
                                  **params, **kwargs)  # type: ignore
    return factory


def _multi_tenant(stems: Tuple[str, ...],
                  **params: object) -> Callable[..., Workload]:
    def factory(name: str, **kwargs: object) -> Workload:
        programs = tuple(load_bundled_program(stem) for stem in stems)
        return MultiTenantWorkload(programs, name,
                                   **params, **kwargs)  # type: ignore
    return factory


def _specs() -> List[Scenario]:
    return [
        Scenario("compiled-tvla-map", "replay", ("tvla-map",),
                 "tvla state-map trace, 3 perturbed rounds",
                 _replay("tvla-map", rounds=3, perturb=0.25)),
        Scenario("compiled-pmd-set", "replay", ("pmd-set",),
                 "pmd rule-name set trace (358 ops), 2 perturbed rounds",
                 _replay("pmd-set", rounds=2, perturb=0.2)),
        Scenario("compiled-findbugs-map", "replay", ("findbugs-map",),
                 "findbugs property-map trace, 4 perturbed rounds",
                 _replay("findbugs-map", rounds=4, perturb=0.3)),
        Scenario("heavy-tail-pmd-set", "heavy-tail", ("pmd-set",),
                 "Zipf-truncated pmd set: few hot, long short-lived tail",
                 _heavy_tail("pmd-set", instances=12, alpha=1.0,
                             survivors=2, perturb=0.3)),
        Scenario("heavy-tail-tvla-list", "heavy-tail", ("tvla-list",),
                 "Zipf-truncated tvla list ranks over 90 recorded ops",
                 _heavy_tail("tvla-list", instances=14, alpha=1.2,
                             survivors=3, perturb=0.3)),
        Scenario("phase-shift-bloat-list", "phase-shift", ("bloat-list",),
                 "quiet bloat lists, then a 12-instance live spike",
                 _phase_shift("bloat-list", quiet_rounds=4, spike=12,
                              perturb=0.3)),
        Scenario("phase-shift-tvla-map", "phase-shift", ("tvla-map",),
                 "tvla map steady-state with a mid-run footprint wave",
                 _phase_shift("tvla-map", quiet_rounds=3, spike=6,
                              perturb=0.25)),
        Scenario("multi-tenant-trio", "multi-tenant",
                 ("tvla-map", "pmd-set", "tvla-list"),
                 "map+set+list tenants interleaved in seeded bursts",
                 _multi_tenant(("tvla-map", "pmd-set", "tvla-list"),
                               rounds=2, perturb=0.25)),
        Scenario("multi-tenant-findbugs-bloat", "multi-tenant",
                 ("findbugs-map", "bloat-list"),
                 "findbugs map woven with bloat instruction lists",
                 _multi_tenant(("findbugs-map", "bloat-list"),
                               rounds=3, perturb=0.3)),
    ]


SCENARIOS: Dict[str, Scenario] = {spec.name: spec for spec in _specs()}


def scenario_names() -> List[str]:
    """All scenario-library names, sorted."""
    return sorted(SCENARIOS)


def get_scenario(name: str) -> Scenario:
    spec = SCENARIOS.get(name)
    if spec is None:
        raise KeyError(f"unknown scenario {name!r}; known: "
                       f"{scenario_names()}")
    return spec


def make_scenario(name: str, **kwargs: object) -> Workload:
    """Instantiate one library scenario by name."""
    return get_scenario(name).create(name=name, **kwargs)


def register_scenarios(registry: WorkloadRegistry) -> None:
    """Register every library scenario in ``registry`` by name."""
    for spec in SCENARIOS.values():
        def factory(spec: Scenario = spec, **kwargs: object) -> Workload:
            return spec.create(name=spec.name, **kwargs)
        registry.register(spec.name, factory)
