"""The trace compiler: lowering and generator closure.

The conformance harness (``test_conformance.py``) pins ``replay_trace``
(compiled execution) to the oracle's interpretive ``reference_replay``
on the committed corpus; this module covers the compiler itself -- step
lowering -- and the property that makes the whole pipeline trustworthy
for *any* trace: the generator -> compiler -> recorder path is closed.
Compiling a generated trace and recording its execution yields the
original operation stream back (modulo the two op kinds a recorder can
never see: ``gc`` is a VM event, and ``init`` models copy-construction
contents that predate the recorder's patch points).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collections.base import CollectionKind
from repro.runtime.context import ContextKey
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.compile import (STEP_CALL, STEP_GC, STEP_INIT,
                                  STEP_ITER_NEW, STEP_NOP, STEP_PUT_ALL,
                                  STEP_SWAP, TraceInstance, compile_trace)
from repro.verify.generate import ADT_KINDS, generate_trace
from repro.verify.oracle import reference_replay
from repro.verify.trace import (Trace, TraceRecorder, eligible_impls,
                                replay_trace)

CONTEXT = ContextKey.synthetic("tests.verify.test_compile")

KINDS = {"list": CollectionKind.LIST, "set": CollectionKind.SET,
         "map": CollectionKind.MAP}


def _trace(kind="list", ops=()):
    baseline = {"list": "ArrayList", "set": "HashSet", "map": "HashMap"}
    return Trace(kind=KINDS[kind], src_type=baseline[kind],
                 baseline_impl=baseline[kind], ops=list(ops))


class TestLowering:
    def test_call_ops_lower_with_decoded_args(self):
        program = compile_trace(_trace("list", [
            ["add", ["i", 4]], ["get", 0], ["size"]]))
        assert [step[0] for step in program.steps] == [STEP_CALL] * 3
        assert program.steps[0][1:3] == ("add", (4,))
        assert program.steps[1][1:3] == ("get", (0,))
        assert program.n_handles == 0

    def test_structural_ops_lower_to_dedicated_steps(self):
        program = compile_trace(_trace("map", [
            ["init", [["p", [["s", "k"], ["i", 1]]]]],
            ["gc"],
            ["swap", "ArrayMap", {}],
            ["put_all", [["p", [["i", 1], ["i", 2]]]]],
            ["iter_new", 0, "items"],
        ]))
        kinds = [step[0] for step in program.steps]
        assert kinds == [STEP_INIT, STEP_GC, STEP_SWAP, STEP_PUT_ALL,
                        STEP_ITER_NEW]
        assert program.steps[0][1] == [("k", 1)]
        assert program.steps[3][1] == [(1, 2)]

    def test_interpreter_tolerance_is_mirrored_as_nops(self):
        # Unknown op, wrong arity, and an invalid iterator mode must
        # lower to no-ops exactly where the oracle's reference_replay
        # (repro.verify.oracle._apply_op) returns ["nop"].
        program = compile_trace(_trace("list", [
            ["frobnicate", ["i", 1]],
            ["add", ["i", 1], ["i", 2]],
            ["iter_new", 0, "items"],
        ]))
        assert [step[0] for step in program.steps] == [STEP_NOP] * 3
        assert (reference_replay(program.trace, "ArrayList").outcomes
                == [["nop"]] * 3)

    def test_handles_stay_symbolic_until_bound(self):
        program = compile_trace(_trace("list", [["add", ["o", 3]]]))
        assert program.n_handles == 4
        assert program.steps[0][3] is True  # needs binding
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        instance = TraceInstance(vm, program, context=CONTEXT)
        instance.run()
        assert instance.wrapper.impl.peek_values() == [instance.objects[3]]


def _renumber(ops):
    """Handle indices normalised to first-occurrence order, so op
    streams from differently-populated handle tables compare equal."""
    mapping = {}

    def walk(node):
        if isinstance(node, list):
            if (len(node) == 2 and node[0] == "o"
                    and isinstance(node[1], int)):
                index = mapping.setdefault(node[1], len(mapping))
                return ["o", index]
            return [walk(item) for item in node]
        return node

    return [walk(op) for op in ops]


@settings(max_examples=25, deadline=None)
@given(adt=st.sampled_from(sorted(ADT_KINDS)),
       seed=st.integers(min_value=0, max_value=10 ** 6))
def test_generator_compiler_recorder_closure(adt, seed):
    """Any generated trace, compiled and re-recorded, is itself again."""
    trace = generate_trace(adt, seed, n_ops=30)
    program = compile_trace(trace)

    vm = RuntimeEnvironment(gc_threshold_bytes=None)
    recorder = TraceRecorder()
    vm.tracer = recorder
    instance = TraceInstance(vm, program, context=CONTEXT,
                             impl=trace.baseline_impl)
    instance.run()
    vm.collect()

    assert instance.dropped_at is None  # baseline never drops out
    assert len(recorder.traces) == 1
    retrace = recorder.traces[0]

    visible = [op for op in trace.ops if op[0] not in ("gc", "init")]
    assert _renumber(retrace.ops) == _renumber(visible)


@pytest.mark.parametrize("adt", sorted(ADT_KINDS))
def test_replay_matches_reference_replay_on_generated_traces(adt):
    """Generated traces reach what recorded benchmark traces rarely do --
    raised exceptions, drop-outs, swaps -- so the replay anchor is also
    held over them, for every eligible implementation."""
    for seed in range(8):
        trace = generate_trace(adt, seed, n_ops=60)
        for impl in eligible_impls(trace):
            reference = reference_replay(trace, impl)
            result = replay_trace(trace, impl)
            assert (result.ticks, result.outcomes, result.dropped_at) == (
                reference.ticks, reference.outcomes,
                reference.dropped_at), (adt, seed, impl)
