"""Operation-trace record/replay and differential diffing.

The paper's premise is that "the different implementations have the same
logical behavior" (section 1) -- every registered backing of an ADT must be
observably interchangeable.  This module makes that contract mechanically
checkable, MapReplay-style: a :class:`TraceRecorder` attached to a
:class:`~repro.runtime.vm.RuntimeEnvironment` captures, per collection
instance, the sequence of operations the program performed (name,
arguments, observed result); :func:`replay_trace` re-executes such a trace
against any single implementation in a fresh VM; and :func:`diff_trace`
replays it against *every* eligible implementation of the ADT kind and
diffs the observable outcomes step by step.  Both compile the trace
(:func:`repro.verify.compile.compile_trace`, once per ``diff_trace``) and
execute it with :class:`repro.verify.compile.TraceInstance`, the one trace
executor; an interpretive replay is kept only as the test oracle
:func:`repro.verify.oracle.reference_replay`.

Recording is a pure observation: the recorder patches the wrapper's
recorded methods on the *instance*, never charges the virtual clock, never
interns allocation contexts, and never allocates simulated objects, so a
recorded run's tick count is byte-identical to a plain run (pinned by
``tests/verify/test_tick_purity.py``).

Traces are JSON documents.  Values are encoded as small tagged lists so
that Java-like element identity survives the round trip: primitives carry
their type tag (``1``, ``True`` and ``1.0`` stay distinct, as boxed
``Integer``/``Boolean``/``Double`` would), while application heap objects
become *handles* -- indices into a per-trace table -- replayed as fresh
simulated objects with the same identity structure.  Decoding leaves
handles symbolic (:class:`HandleRef`) until they are bound to the
executing VM's objects.

Legitimate, documented differences between implementations are normalised
rather than flagged:

* An implementation that raises :class:`UnsupportedOperation` (or rejects
  a value type with ``TypeError``, as the primitive arrays do) *drops out*
  at that step; its remaining steps are not compared.  A ``swap`` that
  changes the collection's contents is flagged in every replay that
  shows it, the baseline included.
* Set and map iteration order is implementation-defined (hash order vs
  array order vs insertion order), so ``iter_next`` values are compared as
  per-iterator multisets; list iteration stays order-sensitive.
* ``LinkedHashSet`` backing a List deduplicates, so it is excluded from
  traces that ever add a duplicate value; ``DoubleArray`` normalises
  stored ints to floats, so it is excluded from traces that store ints
  (see :func:`eligible_impls`).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Tuple)

from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.registry import (ImplementationRegistry,
                                        default_registry)
from repro.collections.wrappers import (ChameleonCollection, ChameleonList,
                                        ChameleonMap, ChameleonSet)
from repro.memory.heap import HeapObject
from repro.runtime.context import ContextKey, capture_context
from repro.runtime.vm import RuntimeEnvironment

if TYPE_CHECKING:
    from repro.verify.compile import CompiledProgram

__all__ = ["Trace", "TraceRecorder", "ReplayResult", "Divergence",
           "DiffReport", "replay_trace", "diff_trace", "eligible_impls",
           "encode_value", "decode_value", "HandleRef", "BASELINE_IMPLS",
           "TRACE_FORMAT_VERSION"]

TRACE_FORMAT_VERSION = 1

#: The reference implementation per ADT kind: the library default, which
#: supports the full operation surface and therefore never drops out.
BASELINE_IMPLS = {
    CollectionKind.LIST: "ArrayList",
    CollectionKind.SET: "HashSet",
    CollectionKind.MAP: "HashMap",
}

_WRAPPER_CLASSES = {
    CollectionKind.LIST: ChameleonList,
    CollectionKind.SET: ChameleonSet,
    CollectionKind.MAP: ChameleonMap,
}

# ----------------------------------------------------------------------
# Value encoding
# ----------------------------------------------------------------------


class HandleTable:
    """Maps application heap objects to dense per-trace handles.

    During recording, handles are assigned on first sight; during replay
    the table is pre-populated with fresh pinned objects, one per handle
    appearing in the trace, so identity relations are preserved.
    """

    def __init__(self) -> None:
        self._index: Dict[int, int] = {}
        self.objects: List[HeapObject] = []

    def handle_for(self, obj: HeapObject) -> int:
        handle = self._index.get(id(obj))
        if handle is None:
            handle = len(self.objects)
            self._index[id(obj)] = handle
            self.objects.append(obj)
        return handle

    def preload(self, objects: List[HeapObject]) -> None:
        for obj in objects:
            self.handle_for(obj)


def encode_value(value: Any, handles: HandleTable) -> list:
    """Encode one element/result value as a JSON-safe tagged list."""
    if value is None:
        return ["n"]
    if isinstance(value, bool):  # before int: bool is an int subclass
        return ["b", value]
    if isinstance(value, int):
        return ["i", value]
    if isinstance(value, float):
        return ["f", repr(value)]  # repr round-trips exactly
    if isinstance(value, str):
        return ["s", value]
    if isinstance(value, HeapObject):
        return ["o", handles.handle_for(value)]
    if isinstance(value, tuple) and len(value) == 2:
        return ["p", [encode_value(value[0], handles),
                      encode_value(value[1], handles)]]
    if isinstance(value, list):
        return ["l", [encode_value(item, handles) for item in value]]
    # Opaque fallback: compared (and replayed) as its token string.
    return ["x", f"{type(value).__name__}:{value!r}"]


class HandleRef:
    """Symbolic reference to a trace object handle.

    Handles are per-VM (each replay allocates fresh simulated objects),
    so decoded values carry these placeholders until :func:`_bind`
    substitutes the executing VM's objects.
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HandleRef({self.index})"


def _decode_symbolic(enc: list) -> Tuple[Any, bool]:
    """Decode a tagged value with handles left symbolic.

    Returns ``(value, has_handles)`` -- the flag lets binding skip
    handle-free arguments entirely.
    """
    tag = enc[0]
    if tag == "n":
        return None, False
    if tag in ("b", "i", "s", "x"):
        return enc[1], False
    if tag == "f":
        return float(enc[1]), False
    if tag == "o":
        return HandleRef(enc[1]), True
    if tag == "p":
        first, f1 = _decode_symbolic(enc[1][0])
        second, f2 = _decode_symbolic(enc[1][1])
        return (first, second), f1 or f2
    if tag == "l":
        items = [_decode_symbolic(item) for item in enc[1]]
        return [value for value, _ in items], any(flag for _, flag in items)
    raise ValueError(f"unknown value tag {tag!r}")


def _bind(value: Any, objects: List[HeapObject]) -> Any:
    """Substitute ``objects`` for the symbolic handles in ``value``."""
    if isinstance(value, HandleRef):
        return objects[value.index]
    if isinstance(value, tuple):
        return tuple(_bind(item, objects) for item in value)
    if isinstance(value, list):
        return [_bind(item, objects) for item in value]
    return value


def decode_value(enc: list, handles: HandleTable) -> Any:
    """Decode a tagged value; handles resolve through ``handles``."""
    return _bind(_decode_symbolic(enc)[0], handles.objects)


def _scan_handles(node: Any, found: set) -> None:
    if isinstance(node, list):
        if len(node) == 2 and node[0] == "o" and isinstance(node[1], int):
            found.add(node[1])
        for item in node:
            _scan_handles(item, found)


def max_handle(ops: List[list]) -> int:
    """Highest object handle referenced anywhere in ``ops`` (-1 if none)."""
    found: set = set()
    _scan_handles(ops, found)
    return max(found) if found else -1


# ----------------------------------------------------------------------
# Operation surfaces
# ----------------------------------------------------------------------

# Argument kinds: "v" element value, "i" raw int, "vs" bulk value source,
# "ps" bulk pair source (maps).
KIND_OPS: Dict[CollectionKind, Dict[str, Tuple[str, ...]]] = {
    CollectionKind.LIST: {
        "add": ("v",), "add_at": ("i", "v"), "add_all": ("vs",),
        "add_all_at": ("i", "vs"), "get": ("i",), "set_at": ("i", "v"),
        "remove_at": ("i",), "remove_first": (), "remove_value": ("v",),
        "contains": ("v",), "index_of": ("v",), "to_list": (),
    },
    CollectionKind.SET: {
        "add": ("v",), "add_all": ("vs",), "remove_value": ("v",),
        "contains": ("v",),
    },
    CollectionKind.MAP: {
        "put": ("v", "v"), "get": ("v",), "remove_key": ("v",),
        "contains_key": ("v",), "contains_value": ("v",),
        "put_all": ("ps",),
    },
}

COMMON_OPS: Dict[str, Tuple[str, ...]] = {
    "size": (), "is_empty": (), "clear": (),
}

#: iterator modes -> the wrapper method that opens them.
ITER_METHODS = {"values": "iterate", "items": "iterate_items",
                "keys": "iterate_keys"}


def ops_for_kind(kind: CollectionKind) -> Dict[str, Tuple[str, ...]]:
    """The full recorded/replayable op surface for ``kind``."""
    surface = dict(KIND_OPS[kind])
    surface.update(COMMON_OPS)
    return surface


# ----------------------------------------------------------------------
# The trace document
# ----------------------------------------------------------------------


@dataclass
class Trace:
    """One collection instance's operation history.

    ``ops`` entries are ``[name, *args]`` with JSON-native args; value
    args are tagged encodings.  ``results`` (parallel to ``ops``, possibly
    empty for generated traces) holds the outcomes observed at record
    time; diffing uses baseline *replay* as the reference, so recorded
    results are informational.
    """

    kind: CollectionKind
    src_type: str
    baseline_impl: str
    context: str = ""
    ops: List[list] = field(default_factory=list)
    results: List[list] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "format": TRACE_FORMAT_VERSION,
            "kind": self.kind.value,
            "src_type": self.src_type,
            "baseline_impl": self.baseline_impl,
            "context": self.context,
            "ops": self.ops,
            "results": self.results,
            "meta": self.meta,
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        if data.get("format", 1) > TRACE_FORMAT_VERSION:
            raise ValueError(
                f"trace format {data['format']} is newer than supported "
                f"({TRACE_FORMAT_VERSION})")
        return cls(kind=CollectionKind(data["kind"]),
                   src_type=data["src_type"],
                   baseline_impl=data["baseline_impl"],
                   context=data.get("context", ""),
                   ops=data.get("ops", []),
                   results=data.get("results", []),
                   meta=data.get("meta", {}))

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))

    def with_ops(self, ops: List[list]) -> "Trace":
        """A copy carrying ``ops`` (recorded results dropped: they no
        longer correspond)."""
        return Trace(kind=self.kind, src_type=self.src_type,
                     baseline_impl=self.baseline_impl, context=self.context,
                     ops=ops, results=[], meta=dict(self.meta))

    def __len__(self) -> int:
        return len(self.ops)


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------


class _RecordingIterator:
    """Delegates to a :class:`CollectionIterator`, reporting each step."""

    __slots__ = ("_inner", "_on_next")

    def __init__(self, inner, on_next: Callable[[Any, bool], None]) -> None:
        self._inner = inner
        self._on_next = on_next

    def __iter__(self) -> "_RecordingIterator":
        return self

    def __next__(self) -> Any:
        try:
            value = next(self._inner)
        except StopIteration:
            self._on_next(None, True)
            raise
        self._on_next(value, False)
        return value

    @property
    def heap_obj(self):
        return self._inner.heap_obj

    @property
    def returned(self) -> int:
        return self._inner.returned

    @property
    def is_shared_empty(self) -> bool:
        return self._inner.is_shared_empty


class _RecState:
    """Per-recorded-collection mutable state."""

    __slots__ = ("trace", "handles", "next_slot", "closed", "max_ops")

    def __init__(self, trace: Trace, max_ops: int) -> None:
        self.trace = trace
        self.handles = HandleTable()
        self.next_slot = 0
        self.closed = False
        self.max_ops = max_ops

    def emit(self, op: list, outcome: list) -> None:
        if self.closed:
            return
        self.trace.ops.append(op)
        self.trace.results.append(outcome)
        if len(self.trace.ops) >= self.max_ops:
            self.closed = True
            self.trace.meta["truncated"] = True


class TraceRecorder:
    """Records per-collection operation traces from a live run.

    Install with :meth:`install` (before the workload runs): every
    :class:`ChameleonCollection` constructed afterwards reports itself
    and has its recorded operations observed, through per-instance
    patches of its op methods.  The recorder is a
    pure observer: zero tick charges, zero simulated allocations, zero
    allocation-context interning.

    Each patch sits in the wrapper's own ``__dict__`` and reaches the
    method it replaces through a :class:`weakref.WeakMethod`: a plain
    bound method would make every recorded wrapper a reference cycle
    that only CPython's cyclic collector frees, taking its impl and
    heap objects with it.
    """

    def __init__(self, max_ops_per_trace: int = 4096,
                 max_traces: Optional[int] = None,
                 src_types: Optional[set] = None) -> None:
        self.traces: List[Trace] = []
        self.max_ops_per_trace = max_ops_per_trace
        self.max_traces = max_traces
        self.src_types = src_types

    def install(self, vm: RuntimeEnvironment) -> "TraceRecorder":
        vm.tracer = self
        return self

    # -- wrapper callback ----------------------------------------------
    def on_collection_created(self, wrapper: ChameleonCollection) -> None:
        if self.max_traces is not None and len(self.traces) >= self.max_traces:
            return
        if self.src_types is not None and wrapper.src_type not in self.src_types:
            return
        # Pure capture: interns nothing, charges nothing.  Library frames
        # (including repro.verify) are filtered by capture_context itself.
        key, _ = capture_context(depth=2, skip=0)
        trace = Trace(kind=wrapper.KIND, src_type=wrapper.src_type,
                      baseline_impl=wrapper.impl.IMPL_NAME,
                      context=key.render())
        state = _RecState(trace, self.max_ops_per_trace)
        self._record_init(wrapper, state)
        self.traces.append(trace)

        surface = ops_for_kind(wrapper.KIND)
        for name, spec in surface.items():
            self._wrap_op(wrapper, state, name, spec)
        self._wrap_iter(wrapper, state, "iterate", "values")
        if wrapper.KIND is CollectionKind.MAP:
            self._wrap_iter(wrapper, state, "iterate_items", "items")
            self._wrap_iter(wrapper, state, "iterate_keys", "keys")
        self._wrap_swap(wrapper, state)

    def _record_init(self, wrapper: ChameleonCollection,
                     state: _RecState) -> None:
        """Snapshot pre-existing contents (copy-constructed wrappers)."""
        if wrapper.KIND is CollectionKind.MAP:
            contents = wrapper.impl.peek_items()
        else:
            contents = wrapper.impl.peek_values()
        if not contents:
            return
        encoded = [encode_value(item, state.handles) for item in contents]
        state.emit(["init", encoded], ["ok", ["n"]])

    # -- instance patching ---------------------------------------------
    def _wrap_op(self, wrapper: ChameleonCollection, state: _RecState,
                 name: str, spec: Tuple[str, ...]) -> None:
        original = weakref.WeakMethod(getattr(wrapper, name))

        def recorded(*args, **kwargs):
            if state.closed:
                return original()(*args, **kwargs)
            enc_args, call_args = _encode_call_args(spec, args, state.handles)
            op = [name] + enc_args
            try:
                result = original()(*call_args, **kwargs)
            except UnsupportedOperation:
                state.emit(op, ["unsup"])
                raise
            except (IndexError, KeyError) as exc:
                state.emit(op, ["raise", type(exc).__name__])
                raise
            state.emit(op, ["ok", encode_value(result, state.handles)])
            return result

        wrapper.__dict__[name] = recorded

    def _wrap_iter(self, wrapper: ChameleonCollection, state: _RecState,
                   method_name: str, mode: str) -> None:
        original = weakref.WeakMethod(getattr(wrapper, method_name))

        def recorded():
            if state.closed:
                return original()()
            slot = state.next_slot
            state.next_slot += 1
            iterator = original()()
            state.emit(["iter_new", slot, mode], ["ok", ["n"]])

            def on_next(value: Any, stop: bool) -> None:
                if stop:
                    state.emit(["iter_next", slot], ["stop"])
                else:
                    state.emit(["iter_next", slot],
                               ["ok", encode_value(value, state.handles)])

            return _RecordingIterator(iterator, on_next)

        wrapper.__dict__[method_name] = recorded

    def _wrap_swap(self, wrapper: ChameleonCollection,
                   state: _RecState) -> None:
        original = weakref.WeakMethod(wrapper.swap_to)

        def recorded(impl_name, initial_capacity=None, impl_kwargs=None):
            result = original()(impl_name, initial_capacity, impl_kwargs)
            state.emit(["swap", impl_name, dict(impl_kwargs or {})],
                       ["ok", ["n"]])
            return result

        wrapper.__dict__["swap_to"] = recorded


def _encode_call_args(spec: Tuple[str, ...], args: tuple,
                      handles: HandleTable) -> Tuple[list, tuple]:
    """Encode positional args per ``spec``; bulk sources are recorded by
    effect (their values at call time) and materialised when the caller
    passed a one-shot iterable."""
    enc_args: List[Any] = []
    call_args: List[Any] = []
    for kind, arg in zip(spec, args):
        if kind == "v":
            enc_args.append(encode_value(arg, handles))
            call_args.append(arg)
        elif kind == "i":
            enc_args.append(int(arg))
            call_args.append(arg)
        elif kind == "vs":
            if isinstance(arg, ChameleonCollection):
                values = arg.impl.peek_values()
                call_args.append(arg)
            else:
                values = list(arg)
                call_args.append(values)
            enc_args.append([encode_value(v, handles) for v in values])
        elif kind == "ps":
            if isinstance(arg, ChameleonCollection):
                pairs = [tuple(item) for item in arg.impl.peek_items()]
                call_args.append(arg)
            else:
                pairs = list(arg.items())
                call_args.append(arg)
            enc_args.append([encode_value(p, handles) for p in pairs])
        else:  # pragma: no cover - spec typo guard
            raise ValueError(f"unknown arg kind {kind!r}")
    return enc_args, tuple(call_args)


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------


@dataclass
class ReplayResult:
    """Outcome of replaying one trace against one implementation.

    ``gc_detail`` (populated on request) is the replay's full GC
    observable record: freed object ids in sweep order, surviving
    object ids, and every per-cycle statistic -- the byte-identity
    surface the interchangeable GC cores are differentially tested on.
    """

    impl_name: str
    outcomes: List[list]
    dropped_at: Optional[int] = None
    ticks: int = 0
    violations: List[Any] = field(default_factory=list)
    gc_detail: Optional[dict] = None

    @property
    def dropped(self) -> bool:
        return self.dropped_at is not None


def _canon(enc: Any) -> str:
    return json.dumps(enc, sort_keys=True)


def replay_trace(trace: Trace, impl_name: str,
                 registry: Optional[ImplementationRegistry] = None,
                 sanitize: bool = False,
                 vm_factory: Callable[..., RuntimeEnvironment]
                 = RuntimeEnvironment,
                 gc_detail: bool = False) -> ReplayResult:
    """Replay ``trace`` against ``impl_name`` in a fresh, isolated VM.

    The trace is compiled (:func:`repro.verify.compile.compile_trace`)
    and executed by a :class:`~repro.verify.compile.TraceInstance`.
    Malformed traces (as the shrinker produces: orphan ``iter_next``,
    unknown slots) replay as deterministic no-ops rather than crashing.
    An :class:`UnsupportedOperation`/``TypeError`` from the
    implementation records an ``unsup`` outcome and stops the replay
    (drop-out).

    ``vm_factory`` builds the replay's VM (called with
    ``gc_threshold_bytes=None``; the differential tests pass
    :func:`repro.verify.oracle.oracle_vm` variants).  With ``gc_detail``
    the result carries the replay's full GC observable record, so two
    replays can be diffed against each other.
    """
    # Deferred imports here and below: repro.verify.compile imports this
    # module.
    from repro.verify.compile import compile_trace
    return _replay_program(compile_trace(trace), impl_name, registry,
                           sanitize, vm_factory, gc_detail)


def _replay_program(program: CompiledProgram, impl_name: str,
                    registry: Optional[ImplementationRegistry],
                    sanitize: bool,
                    vm_factory: Callable[..., RuntimeEnvironment]
                    = RuntimeEnvironment,
                    gc_detail: bool = False) -> ReplayResult:
    """Execute a compiled trace against ``impl_name`` in a fresh VM."""
    from repro.verify.compile import TraceInstance
    vm = vm_factory(gc_threshold_bytes=None)
    sanitizer = None
    if sanitize:
        from repro.verify.sanitizer import HeapSanitizer
        sanitizer = HeapSanitizer()
        sanitizer.attach(vm)
    freed_ids: List[int] = []
    if gc_detail:
        original_free = vm.heap.free

        def recording_free(obj: HeapObject) -> None:
            freed_ids.append(obj.obj_id)
            original_free(obj)

        vm.heap.free = recording_free  # type: ignore[method-assign]

    instance = TraceInstance(
        vm, program, impl=impl_name, registry=registry,
        context=ContextKey.synthetic("repro.verify.replay")).run()
    vm.collect()
    detail: Optional[dict] = None
    if gc_detail:
        import dataclasses

        detail = {
            "freed_ids": list(freed_ids),  # sweep order, not sorted
            "surviving_ids": sorted(vm.heap._objects),
            "cycles": [dataclasses.asdict(cycle)
                       for cycle in vm.timeline.cycles],
        }
    return ReplayResult(impl_name=impl_name, outcomes=instance.outcomes,
                        dropped_at=instance.dropped_at, ticks=vm.now,
                        violations=list(sanitizer.violations)
                        if sanitizer is not None else [],
                        gc_detail=detail)


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


@dataclass
class Divergence:
    """One observable disagreement between an impl and the baseline."""

    impl_name: str
    step: int
    op: list
    expected: list
    actual: list
    note: str = ""

    def render(self) -> str:
        where = f"step {self.step}" if self.step >= 0 else "iteration"
        return (f"{self.impl_name} diverges at {where} {self.op!r}: "
                f"expected {self.expected!r}, got {self.actual!r}"
                + (f" ({self.note})" if self.note else ""))


@dataclass
class DiffReport:
    """The outcome of differentially replaying one trace."""

    trace: Trace
    baseline_impl: str
    results: Dict[str, ReplayResult]
    divergences: List[Divergence]

    @property
    def ok(self) -> bool:
        return not self.divergences and not self.sanitizer_violations

    @property
    def sanitizer_violations(self) -> list:
        found = []
        for result in self.results.values():
            found.extend(result.violations)
        return found

    def failure_signature(self) -> Optional[Tuple[str, str]]:
        """(impl, op-name) of the first divergence -- the shrinker's
        failure-preservation key."""
        if self.divergences:
            first = self.divergences[0]
            return (first.impl_name, str(first.op[0]))
        if self.sanitizer_violations:
            return ("<sanitizer>", self.sanitizer_violations[0].check)
        return None

    def summary(self) -> str:
        lines = [f"trace: kind={self.trace.kind.value} "
                 f"ops={len(self.trace.ops)} context={self.trace.context!r}",
                 f"baseline: {self.baseline_impl}; "
                 f"replayed against {len(self.results)} implementation(s)"]
        for name in sorted(self.results):
            result = self.results[name]
            status = ("dropped out at step "
                      f"{result.dropped_at}" if result.dropped else "complete")
            lines.append(f"  {name:<16} {status}")
        if self.divergences:
            lines.append("DIVERGENCES:")
            lines.extend("  " + d.render() for d in self.divergences)
        for violation in self.sanitizer_violations:
            lines.append(f"SANITIZER: {violation}")
        if self.ok:
            lines.append("ok: all implementations observationally equivalent")
        return "\n".join(lines)


def _added_value_encodings(trace: Trace) -> Iterator[Any]:
    """Every value encoding the trace may *store* (not just query)."""
    for op in trace.ops:
        name = op[0]
        if name in ("init", "add_all", "put_all"):
            for enc in op[1]:
                yield enc
        elif name == "add":
            yield op[1]
        elif name in ("add_at", "set_at", "put"):
            yield op[2]
        elif name == "add_all_at":
            for enc in op[2]:
                yield enc


def _flat_value_tags(enc: Any, tags: set) -> None:
    if isinstance(enc, list) and enc and isinstance(enc[0], str):
        if enc[0] == "p":
            for item in enc[1]:
                _flat_value_tags(item, tags)
            return
        tags.add(enc[0])


def eligible_impls(trace: Trace,
                   registry: Optional[ImplementationRegistry] = None,
                   ) -> List[str]:
    """Implementations whose *documented* semantics can honour ``trace``.

    Everything registered for the trace's kind, minus implementations
    whose value normalisation would legitimately change observable
    results: the deduplicating hash-backed list when the trace adds a
    duplicate, and ``DoubleArray`` (int -> float storage) when the trace
    stores plain ints.  Implementations that merely *reject* some values
    or operations stay eligible -- they drop out at the offending step.
    """
    registry = registry or default_registry()
    names = list(registry.names_for_kind(trace.kind))
    if trace.kind is not CollectionKind.LIST:
        return names

    seen: set = set()
    has_duplicate = False
    stored_tags: set = set()
    for enc in _added_value_encodings(trace):
        _flat_value_tags(enc, stored_tags)
        key = _canon(enc)
        if key in seen:
            has_duplicate = True
        seen.add(key)
    if has_duplicate and "LinkedHashSet" in names:
        names.remove("LinkedHashSet")
    if "i" in stored_tags and "DoubleArray" in names:
        names.remove("DoubleArray")
    return names


def diff_trace(trace: Trace, impls: Optional[List[str]] = None,
               registry: Optional[ImplementationRegistry] = None,
               baseline: Optional[str] = None,
               sanitize: bool = False) -> DiffReport:
    """Replay ``trace`` against every eligible implementation and diff.

    The reference is the *baseline replay* (the kind's default
    implementation), not the recorded results: the recording run may
    itself have used a non-default or swapped implementation.  The trace
    is compiled once; the immutable program backs every replay.
    """
    registry = registry or default_registry()
    if impls is None:
        impls = eligible_impls(trace, registry)
    baseline = baseline or BASELINE_IMPLS[trace.kind]
    ordered = [baseline] + [name for name in impls if name != baseline]

    from repro.verify.compile import compile_trace
    program = compile_trace(trace)
    results = {name: _replay_program(program, name, registry, sanitize)
               for name in ordered}
    reference = results[baseline]
    divergences: List[Divergence] = []
    # A swap state-mismatch is a divergence in its own right (the swapped
    # implementation disagrees with its own pre-swap contents), even when
    # every replay -- including the baseline -- exhibits it identically.
    for name in ordered:
        for step, outcome in enumerate(results[name].outcomes):
            if outcome[0] == "swap-mismatch":
                divergences.append(Divergence(
                    name, step, trace.ops[step], outcome[1], outcome[2],
                    note="collection contents changed across swap"))
    for name in ordered[1:]:
        found = _compare_results(trace, reference, results[name])
        if found is not None:
            divergences.append(found)
    return DiffReport(trace=trace, baseline_impl=baseline,
                      results=results, divergences=divergences)


def _value_updated_slots(trace: Trace) -> set:
    """Iterator slots whose open window contains a ``put``/``put_all``.

    A put that overwrites an existing key's value mid-iteration is
    observed (old vs new value) depending on iteration order, so those
    windows cannot be content-compared across implementations.
    """
    last_next: Dict[int, int] = {}
    opened_at: Dict[int, int] = {}
    put_steps: List[int] = []
    for step, op in enumerate(trace.ops):
        name = op[0]
        if name == "iter_new":
            opened_at[op[1]] = step
        elif name == "iter_next":
            last_next[op[1]] = step
        elif name in ("put", "put_all"):
            put_steps.append(step)
    dirty: set = set()
    for slot, start in opened_at.items():
        end = last_next.get(slot, start)
        if any(start < put < end for put in put_steps):
            dirty.add(slot)
    return dirty


def _compare_results(trace: Trace, reference: ReplayResult,
                     actual: ReplayResult) -> Optional[Divergence]:
    """First observable divergence of ``actual`` vs ``reference``.

    Set/map ``iter_next`` values are compared as per-slot multisets
    (iteration order is implementation-defined); every other outcome is
    compared exactly, step by step, until either side drops out.
    """
    unordered = trace.kind is not CollectionKind.LIST
    bags_ref: Dict[int, List[str]] = {}
    bags_act: Dict[int, List[str]] = {}
    bag_steps: Dict[int, int] = {}
    exhausted: set = set()
    dirty = _value_updated_slots(trace) if unordered else set()

    limit = min(len(reference.outcomes), len(actual.outcomes))
    for step in range(limit):
        op = trace.ops[step]
        expected = reference.outcomes[step]
        observed = actual.outcomes[step]
        if observed[0] == "unsup" or expected[0] == "unsup":
            break  # legitimate drop-out (either side) ends the comparison
        if unordered and op[0] == "iter_next":
            slot = op[1]
            if expected[0] != observed[0]:
                return Divergence(actual.impl_name, step, op, expected,
                                  observed, note="iterator length mismatch")
            if expected[0] == "ok":
                bags_ref.setdefault(slot, []).append(_canon(expected[1]))
                bags_act.setdefault(slot, []).append(_canon(observed[1]))
                bag_steps[slot] = step
            elif expected[0] == "stop":
                exhausted.add(slot)
            continue
        if expected != observed:
            return Divergence(actual.impl_name, step, op, expected, observed)

    for slot, ref_bag in bags_ref.items():
        # Only exhausted iterators have comparable contents: a partial
        # prefix legitimately differs between iteration orders.  Map
        # slots whose window saw a value update are skipped too: entry
        # snapshots do not shield value overwrites, so whether the old
        # or new value is observed depends on iteration order (exactly
        # as in java.util collections).
        if slot not in exhausted or slot in dirty:
            continue
        act_bag = bags_act.get(slot, [])
        if sorted(ref_bag) != sorted(act_bag):
            return Divergence(
                actual.impl_name, bag_steps.get(slot, -1),
                ["iter_bag", slot], sorted(ref_bag), sorted(act_bag),
                note="iteration multiset mismatch")
    return None
