"""Differential trace fuzzer and heap sanitizer (``repro.verify``).

The verification subsystem checks the property the whole tool rests on:
every registered implementation of an ADT is observably interchangeable,
and the simulated heap plus its semantic-map accounting stays sound under
GC.  See DESIGN.md ("Verification subsystem") for the architecture.
"""

from repro.verify.compile import (CompiledProgram, TraceInstance,
                                  compile_trace)
from repro.verify.fuzz import (FuzzFailure, FuzzResult, record_workload,
                               run_fuzz)
from repro.verify.generate import ADT_KINDS, SWAP_TARGETS, generate_trace
from repro.verify.sanitizer import HeapSanitizer, Violation, sanitized_vms
from repro.verify.shrink import (make_failure_checker, shrink_trace,
                                 write_repro_script)
from repro.verify.trace import (BASELINE_IMPLS, DiffReport, Divergence,
                                ReplayResult, Trace, TraceRecorder,
                                decode_value, diff_trace, eligible_impls,
                                encode_value, replay_trace)

__all__ = [
    "ADT_KINDS", "BASELINE_IMPLS", "SWAP_TARGETS",
    "CompiledProgram", "DiffReport", "Divergence", "FuzzFailure",
    "FuzzResult", "HeapSanitizer", "ReplayResult", "Trace",
    "TraceInstance", "TraceRecorder", "Violation",
    "compile_trace", "decode_value", "diff_trace", "eligible_impls",
    "encode_value", "generate_trace",
    "make_failure_checker", "record_workload",
    "replay_trace", "run_fuzz", "sanitized_vms", "shrink_trace",
    "write_repro_script",
]
