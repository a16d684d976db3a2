"""Synthetic benchmark workloads reproducing the paper's applications."""

from repro.workloads.base import Workload, WorkloadRegistry
from repro.workloads.bloat import BloatWorkload
from repro.workloads.dacapo import (DacapoCompressWorkload,
                                    DacapoCryptoWorkload,
                                    DacapoHsqldbWorkload)
from repro.workloads.findbugs import FindbugsWorkload
from repro.workloads.fop import FopWorkload
from repro.workloads.pmd import PmdWorkload
from repro.workloads.soot import SootWorkload
from repro.workloads.synthetic import ContextSpec, SyntheticWorkload
from repro.workloads.tvla import TvlaWorkload

__all__ = [
    "Workload", "WorkloadRegistry", "BloatWorkload",
    "DacapoCompressWorkload", "DacapoCryptoWorkload",
    "DacapoHsqldbWorkload", "FindbugsWorkload", "FopWorkload",
    "PmdWorkload", "SootWorkload", "TvlaWorkload", "ContextSpec",
    "SyntheticWorkload",
]

BENCHMARKS = (TvlaWorkload, SootWorkload, FindbugsWorkload, BloatWorkload,
              FopWorkload, PmdWorkload)
"""The six evaluated applications of section 5, in paper order."""

CONTROLS = (DacapoCompressWorkload, DacapoCryptoWorkload,
            DacapoHsqldbWorkload)
"""The low-potential DaCapo controls."""


def default_workload_registry() -> WorkloadRegistry:
    """A registry with the six benchmarks and the DaCapo controls."""
    registry = WorkloadRegistry()
    for workload_class in BENCHMARKS + CONTROLS:
        registry.register(workload_class.name, workload_class)
    return registry
