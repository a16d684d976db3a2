"""The simulated VM: clock, cost model, contexts, sampling, environment."""

from repro.runtime.context import (ContextFrame, ContextKey, ContextRegistry,
                                   DEFAULT_CONTEXT_DEPTH, capture_context)
from repro.runtime.costs import CostModel, VMClock
from repro.runtime.sampling import (AlwaysSample, NeverSample, RateSampler,
                                    SamplingPolicy)
from repro.runtime.vm import (ImplementationChoice,
                              ReplacementPolicyProtocol, RuntimeEnvironment)

__all__ = [
    "ContextFrame", "ContextKey", "ContextRegistry", "DEFAULT_CONTEXT_DEPTH",
    "capture_context", "CostModel", "VMClock",
    "AlwaysSample", "NeverSample", "RateSampler", "SamplingPolicy",
    "ImplementationChoice", "ReplacementPolicyProtocol",
    "RuntimeEnvironment",
]
