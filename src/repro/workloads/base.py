"""Workload infrastructure: the simulated applications of section 5.

The paper evaluates Chameleon on real Java programs (TVLA, SOOT, FindBugs,
bloat, FOP, PMD, DaCapo).  This repository cannot ship those programs, so
each benchmark is a *synthetic workload* that reproduces the collection-
usage signature section 5.3 describes for it -- the contexts, types,
sizes, operation mixes and lifetimes that made each result happen.  A
workload is a deterministic program against the wrapped collection API:
given the same seed and scale it allocates the same objects and performs
the same operations, so before/after comparisons are exact.

``manual_fixes`` models the source edits the paper applied by hand where
the tool's automatic replacement was not enough (bloat's lazy allocation,
PMD's EMPTY_LIST, SOOT's temporaries): a workload run with
``manual_fixes=True`` behaves like the hand-patched program.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Optional

from repro.runtime.vm import RuntimeEnvironment

__all__ = ["Workload", "WorkloadRegistry"]


class Workload:
    """One deterministic simulated application."""

    #: Short benchmark name used in reports (e.g. ``"tvla"``).
    name: str = "workload"

    def __init__(self, seed: int = 2009, scale: float = 1.0,
                 manual_fixes: bool = False) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.seed = seed
        self.scale = scale
        self.manual_fixes = manual_fixes

    def run(self, vm: RuntimeEnvironment) -> None:
        """Execute the workload to completion inside ``vm``.

        Implementations must derive all randomness from :meth:`rng` so
        runs are reproducible, and must not call ``vm.finish()`` (the
        harness owns run lifecycle).
        """
        raise NotImplementedError

    def rng(self) -> random.Random:
        """A fresh deterministic PRNG for one run."""
        return random.Random(self.seed)

    def fresh(self) -> "Workload":
        """An identically-configured new instance of this workload.

        Repeated measurements (minimal-heap probes, the overhead
        postures) run each probe on a fresh instance so no instance
        state can bleed between runs -- and a scheduler worker
        reconstructs exactly the same instance from the same spec, which
        keeps parallel probes byte-identical to serial ones.  Subclasses
        whose constructors take extra arguments must override this.
        """
        return type(self)(seed=self.seed, scale=self.scale,
                          manual_fixes=self.manual_fixes)

    def scaled(self, base: int, minimum: int = 1) -> int:
        """``base`` scaled by the workload's scale factor."""
        return max(minimum, int(base * self.scale))

    def describe(self) -> str:
        """One-line description used in experiment output."""
        fixes = " (+manual fixes)" if self.manual_fixes else ""
        return f"{self.name} seed={self.seed} scale={self.scale}{fixes}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Workload {self.describe()}>"


class WorkloadRegistry:
    """Name -> workload factory lookup used by the experiment harness."""

    def __init__(self) -> None:
        self._factories: Dict[str, Any] = {}

    def register(self, name: str, factory: Any) -> None:
        """Register a workload class or factory under ``name``.

        Names are an external interface (CLI, experiment specs, CI
        legs), so a collision is a bug: re-registering an existing name
        raises.
        """
        if name in self._factories:
            raise ValueError(f"workload {name!r} is already registered")
        self._factories[name] = factory

    def create(self, name: str, **kwargs: Any) -> Workload:
        """Instantiate the workload registered under ``name``."""
        factory = self._factories.get(name)
        if factory is None:
            raise KeyError(f"unknown workload {name!r}; known: "
                           f"{sorted(self._factories)}")
        return factory(**kwargs)

    def names(self) -> list:
        """All registered workload names."""
        return sorted(self._factories)
