"""Tool-level configuration for Chameleon runs.

Collects every tunable the paper mentions in one value object: the rule
constants (section 3.3.1 -- "may be tuned per specific environment"), the
stability thresholds (Definition 3.1), the potential gate (section 3.3),
the partial-context depth (section 3.2.1, "usually of depth 2 or 3"),
sampling (section 4.2) and the online-mode decision point (section 3.3.2's
"at what point of the execution can we decide").
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.memory.layout import MemoryModel
from repro.profiler.stability import StabilityPolicy
from repro.runtime.context import DEFAULT_CONTEXT_DEPTH
from repro.runtime.costs import CostModel

__all__ = ["ToolConfig"]


@dataclass
class ToolConfig:
    """Configuration shared by the offline and online tool facades.

    Attributes:
        constants: Overrides for the symbolic rule constants.
        stability: Stability gating policy (Definition 3.1).
        min_potential_bytes: Peak-cycle saving a context must show before
            space-motivated rules may fire.
        context_depth: Partial allocation-context depth.
        sampling_rate: Profile 1 in N allocations per source type
            (1 = every allocation).
        sampling_warmup: Always-profiled leading allocations per type.
        memory_model: Simulated object layout (32-bit by default, as in
            the paper's evaluation).
        cost_model: Tick charges for the virtual clock.
        gc_threshold_bytes: Allocation volume between periodic GC cycles.
        online_decide_after: Dead instances a context needs before the
            online mode commits to an implementation choice.
        online_retrofit_live: Online extension beyond the paper: when a
            replacement is decided, also swap the context's already-live
            instances through the wrappers (section 3.3.2's framework-
            specialisation vision).
        top_contexts_to_apply: How many ranked suggestions the apply step
            takes (the paper modified "the top allocation contexts",
            e.g. 5 for TVLA).
    """

    constants: Dict[str, float] = field(default_factory=dict)
    stability: StabilityPolicy = field(default_factory=StabilityPolicy)
    min_potential_bytes: int = 512
    context_depth: int = DEFAULT_CONTEXT_DEPTH
    sampling_rate: int = 1
    sampling_warmup: int = 8
    memory_model: MemoryModel = field(default_factory=MemoryModel.for_32bit)
    cost_model: CostModel = field(default_factory=CostModel)
    gc_threshold_bytes: int = 256 * 1024
    online_decide_after: int = 8
    online_retrofit_live: bool = False
    top_contexts_to_apply: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sampling_rate < 1:
            raise ValueError("sampling_rate must be >= 1")
        if self.online_decide_after < 1:
            raise ValueError("online_decide_after must be >= 1")

    def fingerprint(self) -> str:
        """A stable digest of every semantic field.

        Two configs with equal fingerprints produce identical simulated
        runs, which is what makes the fingerprint usable as a cache-key
        component (profiling-session cache, per-worker tool memo).  The
        digest is content-based -- unlike ``id()`` or ``hash()`` it is
        stable across processes and interpreter invocations.
        """
        payload = dataclasses.asdict(self)
        canonical = json.dumps(payload, sort_keys=True, default=repr)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
