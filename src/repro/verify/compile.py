"""Trace compiler and executor: the one way a recorded trace runs.

MapReplay (PAPERS.md) generates benchmarks by compiling recorded traces;
this module is that idea applied to ``repro.verify`` traces.
:func:`compile_trace` lowers a trace once -- decoding every tagged
argument -- into a :class:`CompiledProgram` of pre-decoded steps that a
:class:`TraceInstance` can execute any number of times against any
implementation.  :func:`repro.verify.trace.replay_trace` and
:func:`~repro.verify.trace.diff_trace` (and so fuzz and shrink) execute
traces this way.

An interpretive replay, which decodes and dispatches each op as it goes,
is kept only as the test oracle :func:`repro.verify.oracle.reference_replay`;
the replay anchor (``tests/verify/test_conformance.py``) pins
``replay_trace``'s ticks, per-step outcomes and drop-out step to it.

Semantics worth knowing:

* ``init`` contents are applied at the implementation level (they model
  copy-construction, not program operations), so they stay invisible to
  an attached :class:`~repro.verify.trace.TraceRecorder` -- exactly as a
  recording of the original program would have seen them.
* ``put_all`` goes through the wrapper with a :class:`_PairSource`
  (an ``items()`` duck type over the recorded pair list), never a dict:
  a dict would collapse Java-distinct keys (``1`` vs ``True`` vs
  ``1.0``).  Going through the wrapper keeps its argument pinning, so
  compiled programs stay GC-sound in VMs with real allocation
  thresholds; the pinning itself is tick-free.
* A ``swap`` checks that the collection's contents survive the swap
  unchanged, reporting ``swap-mismatch`` otherwise.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.registry import ImplementationRegistry
from repro.collections.wrappers import ChameleonCollection
from repro.memory.heap import HeapObject
from repro.runtime.context import ContextKey
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.trace import (_WRAPPER_CLASSES, ITER_METHODS, HandleTable,
                                Trace, _bind, _canon, _decode_symbolic,
                                encode_value, max_handle, ops_for_kind)

__all__ = ["CompiledProgram", "TraceInstance", "compile_trace"]

# Step opcodes.  A compiled step is a plain tuple whose first element is
# one of these; the remaining layout is per-opcode (see _compile_op).
STEP_CALL = 0       # (CALL, method_name, args_tuple, needs_bind)
STEP_PUT_ALL = 1    # (PUT_ALL, pairs_list, needs_bind)
STEP_INIT = 2       # (INIT, values_list, needs_bind)
STEP_GC = 3         # (GC,)
STEP_SWAP = 4       # (SWAP, target_impl, kwargs_dict)
STEP_ITER_NEW = 5   # (ITER_NEW, wrapper_method, slot)
STEP_ITER_NEXT = 6  # (ITER_NEXT, slot)
STEP_NOP = 7        # (NOP,)


class _PairSource:
    """``putAll`` source exposing recorded pairs through ``items()``.

    Never a dict: a dict would collapse Java-distinct keys (``1`` vs
    ``True`` vs ``1.0``) that the trace codec keeps apart.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: List[Tuple[Any, Any]]) -> None:
        self._pairs = pairs

    def items(self) -> List[Tuple[Any, Any]]:
        return list(self._pairs)


def _compile_op(op: list, kind: CollectionKind,
                surface: Dict[str, Tuple[str, ...]]) -> tuple:
    """Lower one encoded op to a step tuple (the one-time decode)."""
    name = op[0]
    if name == "init":
        values = []
        needs_bind = False
        for enc in op[1]:
            value, flag = _decode_symbolic(enc)
            values.append(value)
            needs_bind = needs_bind or flag
        return (STEP_INIT, values, needs_bind)
    if name == "gc":
        return (STEP_GC,)
    if name == "swap":
        return (STEP_SWAP, op[1], dict(op[2]) if len(op) > 2 else {})
    if name == "iter_new":
        slot, mode = op[1], op[2]
        method_name = ITER_METHODS.get(mode)
        if method_name is None or (mode != "values"
                                   and kind is not CollectionKind.MAP):
            return (STEP_NOP,)
        return (STEP_ITER_NEW, method_name, slot)
    if name == "iter_next":
        return (STEP_ITER_NEXT, op[1])

    spec = surface.get(name)
    if spec is None or len(op) - 1 != len(spec):
        return (STEP_NOP,)
    args: List[Any] = []
    needs_bind = False
    for arg_kind, raw in zip(spec, op[1:]):
        if arg_kind == "v":
            value, flag = _decode_symbolic(raw)
        elif arg_kind == "i":
            value, flag = raw, False
        else:  # "vs" / "ps": a plain list of tagged encodings
            value, flag = _decode_symbolic(["l", raw])
        args.append(value)
        needs_bind = needs_bind or flag
    if name == "put_all":
        return (STEP_PUT_ALL, args[0], needs_bind)
    return (STEP_CALL, name, tuple(args), needs_bind)


class CompiledProgram:
    """One trace lowered to pre-decoded steps, ready to instantiate.

    Immutable once built; instances never mutate the shared step list,
    so one program can back any number of :class:`TraceInstance`
    replays (``diff_trace`` runs one per implementation).
    """

    __slots__ = ("trace", "steps", "n_handles")

    def __init__(self, trace: Trace, steps: Tuple[tuple, ...],
                 n_handles: int) -> None:
        self.trace = trace
        self.steps = steps
        self.n_handles = n_handles

    @property
    def kind(self) -> CollectionKind:
        return self.trace.kind

    @property
    def src_type(self) -> str:
        return self.trace.src_type


def compile_trace(trace: Trace) -> CompiledProgram:
    """Lower ``trace`` into a :class:`CompiledProgram`.

    Tolerant of malformed traces (as the shrinker produces): unknown op
    names, arity mismatches and invalid iterator modes compile to no-ops,
    which execute as a ``["nop"]`` outcome.
    """
    surface = ops_for_kind(trace.kind)
    steps = tuple(_compile_op(op, trace.kind, surface) for op in trace.ops)
    return CompiledProgram(trace=trace, steps=steps,
                           n_handles=max_handle(trace.ops) + 1)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

def _state_snapshot(wrapper: ChameleonCollection,
                    handles: HandleTable) -> List[str]:
    """Canonical contents for swap state-equivalence: ordered for lists,
    sorted multiset for sets/maps.  Uses the replay's handle table so
    object identities encode stably regardless of iteration order."""
    if wrapper.KIND is CollectionKind.MAP:
        encoded = [_canon(encode_value(tuple(item), handles))
                   for item in wrapper.impl.peek_items()]
        return sorted(encoded)
    encoded = [_canon(encode_value(v, handles))
               for v in wrapper.impl.peek_values()]
    if wrapper.KIND is CollectionKind.SET:
        return sorted(encoded)
    return encoded


class TraceInstance:
    """One live collection driven by a compiled program inside a VM.

    Handle objects are allocated and rooted first, then the wrapper is
    constructed under ``context`` (explicit, so interning is tick-free)
    and pinned; :meth:`run` executes the steps, one outcome per executed
    step.  The caller owns the end-of-run ``vm.collect()``.
    """

    def __init__(self, vm: RuntimeEnvironment, program: CompiledProgram,
                 *, context: ContextKey, impl: Optional[str] = None,
                 registry: Optional[ImplementationRegistry] = None) -> None:
        self.vm = vm
        self.program = program
        self.objects: List[HeapObject] = []
        for _ in range(program.n_handles):
            obj = vm.allocate_data("TraceObj", ref_fields=1)
            vm.add_root(obj)
            self.objects.append(obj)
        self.wrapper = _WRAPPER_CLASSES[program.kind](
            vm, src_type=program.src_type, impl=impl, registry=registry,
            context=context)
        self.wrapper.pin()
        self._iterators: Dict[int, Any] = {}
        self._handles = HandleTable()
        self._handles.preload(self.objects)
        self.outcomes: List[list] = []
        self.dropped_at: Optional[int] = None

    def run(self) -> "TraceInstance":
        """Execute the program until its end or its drop-out."""
        for index, step in enumerate(self.program.steps):
            outcome = self._execute(step)
            self.outcomes.append(outcome)
            if outcome[0] == "unsup":
                # Drop-out: the implementation rejects this operation;
                # the rest of the program is not executed.
                self.dropped_at = index
                break
        return self

    def _execute(self, step: tuple) -> list:
        opcode = step[0]
        wrapper = self.wrapper
        if opcode == STEP_CALL:
            args = step[2]
            if step[3]:
                args = tuple(_bind(arg, self.objects) for arg in args)
            try:
                result = getattr(wrapper, step[1])(*args)
            except UnsupportedOperation:
                return ["unsup"]
            except TypeError:
                return ["unsup"]
            except (IndexError, KeyError) as exc:
                return ["raise", type(exc).__name__]
            return ["ok", encode_value(result, self._handles)]
        if opcode == STEP_ITER_NEXT:
            iterator = self._iterators.get(step[1])
            if iterator is None:
                return ["nop"]
            try:
                value = next(iterator)
            except StopIteration:
                return ["stop"]
            return ["ok", encode_value(value, self._handles)]
        if opcode == STEP_ITER_NEW:
            self._iterators[step[2]] = getattr(wrapper, step[1])()
            return ["ok", ["n"]]
        if opcode == STEP_PUT_ALL:
            pairs = step[1]
            if step[2]:
                pairs = [_bind(pair, self.objects) for pair in pairs]
            try:
                wrapper.put_all(_PairSource(pairs))
            except (UnsupportedOperation, TypeError):
                return ["unsup"]
            except (IndexError, KeyError) as exc:
                return ["raise", type(exc).__name__]
            return ["ok", ["n"]]
        if opcode == STEP_INIT:
            values = step[1]
            if step[2]:
                values = [_bind(value, self.objects) for value in values]
            is_map = self.program.kind is CollectionKind.MAP
            try:
                for value in values:
                    if is_map:
                        wrapper.impl.put(value[0], value[1])
                    else:
                        wrapper.impl.add(value)
            except (UnsupportedOperation, TypeError):
                return ["unsup"]
            return ["ok", ["n"]]
        if opcode == STEP_GC:
            self.vm.collect()
            return ["ok", ["n"]]
        if opcode == STEP_SWAP:
            before = _state_snapshot(wrapper, self._handles)
            try:
                wrapper.swap_to(step[1], impl_kwargs=dict(step[2]) or None)
            except (UnsupportedOperation, TypeError):
                return ["unsup"]
            after = _state_snapshot(wrapper, self._handles)
            if before != after:
                return ["swap-mismatch", before, after]
            return ["ok", ["n"]]
        return ["nop"]  # STEP_NOP
