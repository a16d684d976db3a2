"""The replay anchor: compiled replay against the interpretive oracle.

:func:`repro.verify.trace.replay_trace` compiles a trace and executes it
with :class:`repro.verify.compile.TraceInstance`, the one trace
executor.  On every committed corpus trace it must be tick-, outcome-
and drop-out-identical to :func:`repro.verify.oracle.reference_replay`,
which decodes and dispatches each op as it goes.  The corpus's other
obligations -- sanitizer-clean diffs (``test_corpus.py``) and
production/reference identity of the op pipeline and the collector
(``test_vm_cores.py``, ``test_gc_cores.py``) -- are checked over the
same files.
"""

import pathlib

import pytest

from repro.verify.oracle import reference_replay
from repro.verify.trace import Trace, replay_trace

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_replay_anchor(path):
    trace = Trace.from_json(path.read_text(encoding="utf-8"))
    reference = reference_replay(trace, trace.baseline_impl)
    result = replay_trace(trace, trace.baseline_impl)
    assert result.ticks == reference.ticks
    assert result.outcomes == reference.outcomes
    assert result.dropped_at == reference.dropped_at
