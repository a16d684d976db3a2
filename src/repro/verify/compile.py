"""Trace compiler and executor: the one way a recorded trace runs.

MapReplay (PAPERS.md) generates benchmarks by compiling recorded traces;
this module is that idea applied to ``repro.verify`` traces.
:func:`compile_trace` lowers a trace once -- decoding every tagged
argument -- into a :class:`CompiledProgram` of pre-decoded steps that a
:class:`TraceInstance` can execute any number of times, inside any VM,
against any implementation.  :func:`repro.verify.trace.replay_trace` and
:func:`~repro.verify.trace.diff_trace` (and so fuzz and shrink) execute
traces this way, with outcome collection on; the workload layer
(:mod:`repro.workloads.compiled`) turns one recorded trace into a
*family* of scenarios by replaying compiled programs in rounds,
truncating them heavy-tailed, perturbing their value payloads, and
weaving several of them through a single VM.

An interpretive replay, which decodes and dispatches each op as it goes,
is kept only as the test oracle :func:`repro.verify.oracle.reference_replay`;
the conformance harness (``tests/verify/test_conformance.py``) pins
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
* A ``swap`` with outcomes collected checks that the collection's
  contents survive the swap unchanged, reporting ``swap-mismatch``
  otherwise; without outcome collection the check is skipped.
"""

from __future__ import annotations

import random
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

__all__ = ["CompiledProgram", "TraceInstance", "compile_trace",
           "perturb_ops", "load_trace_file"]

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
    so one program can back any number of concurrent
    :class:`TraceInstance` objects (and be cached across workloads).
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

    @property
    def baseline_impl(self) -> str:
        return self.trace.baseline_impl

    def __len__(self) -> int:
        return len(self.steps)

    def prefix(self, n_ops: int) -> "CompiledProgram":
        """The program of the trace's first ``n_ops`` operations.

        Recompiled from the truncated op list so handle preloading
        covers only the handles the prefix references.
        """
        if n_ops >= len(self.trace.ops):
            return self
        return compile_trace(self.trace.with_ops(self.trace.ops[:n_ops]))

    def perturbed(self, rng: random.Random,
                  strength: float) -> "CompiledProgram":
        """A deterministically value-perturbed sibling of this program."""
        if strength <= 0:
            return self
        return compile_trace(
            self.trace.with_ops(perturb_ops(self.trace.ops, rng, strength)))


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


def load_trace_file(path: str) -> Trace:
    """Read one trace JSON document from ``path``."""
    with open(path, "r", encoding="utf-8") as handle:
        return Trace.from_json(handle.read())


# ----------------------------------------------------------------------
# Value perturbation
# ----------------------------------------------------------------------

# Redraw distributions per primitive tag, matching the generator's value
# profiles so perturbed traces stay in the same value universe (exact
# halves for floats: repr round-trips them losslessly).
_PERTURB_DRAWS = {
    "i": lambda rng: rng.randrange(-50, 50),
    "f": lambda rng: repr(rng.randrange(-40, 40) / 2),
    "s": lambda rng: f"k{rng.randrange(0, 24)}",
    "b": lambda rng: rng.random() < 0.5,
}


#: Ops a perturbation may duplicate: single-value queries/mutations the
#: baseline implementations tolerate at any collection state.  Never
#: structural ops (iterators, swaps, init, gc) or index-addressed list
#: ops, so a duplicated op cannot change the trace's well-formedness.
_DUPLICABLE_OPS = frozenset({
    "add", "put", "get", "contains", "contains_key", "contains_value",
    "remove_value", "remove_key", "index_of", "size", "is_empty",
})


def _is_tagged_value(node: Any) -> bool:
    return (isinstance(node, list) and bool(node)
            and isinstance(node[0], str))


def _perturb_value(enc: list, rng: random.Random, strength: float,
                   n_handles: int) -> list:
    tag = enc[0]
    draw = _PERTURB_DRAWS.get(tag)
    if draw is not None:
        if rng.random() < strength:
            return [tag, draw(rng)]
        return enc
    if tag == "o":
        # Handles are interchangeable preloaded TraceObjs, so redrawing
        # the index within the trace's handle universe is always sound
        # -- and it is the only value axis a recorded benchmark trace
        # (typically all object-valued) can bend along.
        if n_handles > 1 and rng.random() < strength:
            return ["o", rng.randrange(n_handles)]
        return enc
    if tag == "p":
        return ["p", [_perturb_value(enc[1][0], rng, strength, n_handles),
                      _perturb_value(enc[1][1], rng, strength, n_handles)]]
    if tag == "l":
        return ["l", [_perturb_value(item, rng, strength, n_handles)
                      for item in enc[1]]]
    return enc  # "n", "x": nothing to redraw / opaque token


def _perturb_op(op: list, rng: random.Random, strength: float,
                n_handles: int) -> list:
    new_op: List[Any] = [op[0]]
    for arg in op[1:]:
        if _is_tagged_value(arg):
            new_op.append(_perturb_value(arg, rng, strength, n_handles))
        elif isinstance(arg, list):
            # Bulk arg: a plain list of tagged encodings.
            new_op.append([_perturb_value(item, rng, strength, n_handles)
                           if _is_tagged_value(item) else item
                           for item in arg])
        else:
            new_op.append(arg)
    return new_op


def perturb_ops(ops: List[list], rng: random.Random,
                strength: float) -> List[list]:
    """Deterministically perturb value payloads and op mix in ``ops``.

    Three bounded, always-well-formed moves, each drawn with
    probability proportional to ``strength``:

    * primitive leaves (tags ``i``/``f``/``s``/``b``) are redrawn from
      the generator's value profiles, keeping their type tag so
      typed-array eligibility does not shift;
    * object handles are redrawn within the trace's existing handle
      universe (never growing it);
    * safe single-value ops (:data:`_DUPLICABLE_OPS`) are occasionally
      followed by an independently perturbed sibling, bending the op
      mix without touching iterator/swap/init structure.

    Op names, order, index arguments, iterator slots and swap targets
    are preserved, so a perturbed trace always replays.
    """
    n_handles = max_handle(ops) + 1
    perturbed: List[list] = []
    for op in ops:
        perturbed.append(_perturb_op(op, rng, strength, n_handles))
        if op[0] in _DUPLICABLE_OPS and rng.random() < strength * 0.25:
            perturbed.append(_perturb_op(op, rng, strength, n_handles))
    return perturbed


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
    constructed (explicit context, so interning is tick-free) and
    pinned, then steps execute.  The caller
    owns the end-of-run ``vm.collect()`` and the eventual
    :meth:`release`, which is what lets several instances share a VM --
    the multi-tenant and phase-shifting scenarios -- or die mid-run for
    GC pressure.

    ``step()`` executes one operation and returns whether work remains,
    so schedulers can interleave instances at op granularity.
    """

    def __init__(self, vm: RuntimeEnvironment, program: CompiledProgram,
                 *, impl: Optional[str] = None,
                 registry: Optional[ImplementationRegistry] = None,
                 context: Optional[ContextKey] = None,
                 collect_outcomes: bool = False) -> None:
        self.vm = vm
        self.program = program
        self.objects: List[HeapObject] = []
        for _ in range(program.n_handles):
            obj = vm.allocate_data("TraceObj", ref_fields=1)
            vm.add_root(obj)
            self.objects.append(obj)
        self.wrapper = _WRAPPER_CLASSES[program.kind](
            vm, src_type=program.src_type, impl=impl, registry=registry,
            context=context
            or ContextKey.synthetic("repro.workloads.compiled"))
        self.wrapper.pin()
        self._iterators: Dict[int, Any] = {}
        self._cursor = 0
        self.dropped_at: Optional[int] = None
        self._released = False
        self._handles: Optional[HandleTable] = None
        self.outcomes: Optional[List[list]] = None
        if collect_outcomes:
            self._handles = HandleTable()
            self._handles.preload(self.objects)
            self.outcomes = []

    # -- lifecycle -----------------------------------------------------
    @property
    def finished(self) -> bool:
        return (self.dropped_at is not None
                or self._cursor >= len(self.program.steps))

    def run(self) -> "TraceInstance":
        """Execute every remaining step."""
        while self.step():
            pass
        return self

    def release(self) -> None:
        """Unroot the wrapper and this instance's handle objects so the
        whole subgraph can die at the next collection.  Idempotent."""
        if self._released:
            return
        self._released = True
        self.wrapper.unpin()
        for obj in self.objects:
            self.vm.remove_root(obj)

    # -- execution -----------------------------------------------------
    def step(self) -> bool:
        """Execute the next step; returns True while work remains."""
        if self.finished:
            return False
        outcome = self._execute(self.program.steps[self._cursor])
        if self.outcomes is not None:
            self.outcomes.append(outcome)
        if outcome[0] == "unsup":
            # Drop-out: the implementation rejects this operation; the
            # rest of the program is not executed.
            self.dropped_at = self._cursor
            return False
        self._cursor += 1
        return self._cursor < len(self.program.steps)

    def _encode(self, result: Any) -> list:
        if self._handles is None:
            return ["ok"]  # control-flow token only; never recorded
        return ["ok", encode_value(result, self._handles)]

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
            return self._encode(result)
        if opcode == STEP_ITER_NEXT:
            iterator = self._iterators.get(step[1])
            if iterator is None:
                return ["nop"]
            try:
                value = next(iterator)
            except StopIteration:
                return ["stop"]
            return self._encode(value)
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
            # The swap state-equivalence check is an observable outcome,
            # so it runs only when outcomes are collected.
            handles = self._handles
            before = (None if handles is None
                      else _state_snapshot(wrapper, handles))
            try:
                wrapper.swap_to(step[1], impl_kwargs=dict(step[2]) or None)
            except (UnsupportedOperation, TypeError):
                return ["unsup"]
            if handles is not None:
                after = _state_snapshot(wrapper, handles)
                if before != after:
                    return ["swap-mismatch", before, after]
            return ["ok", ["n"]]
        return ["nop"]  # STEP_NOP
