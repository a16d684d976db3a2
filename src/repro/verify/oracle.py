"""Reference implementations of the simulator's hot paths (test oracle).

The collector's mark and account phases
(:class:`~repro.memory.gc.MarkSweepGC`) and the runtime's operation
pipeline -- batched tick charging, wrapper ops that read recording state
fixed at construction, the inlined allocator -- are optimised rewrites
of straightforward loops.  Those loops live on here as the executable
specification the differential tests (``tests/verify/test_gc_cores.py``,
``test_vm_cores.py``, ``test_conformance.py``) hold the production code
to: identical ticks, per-cycle GC statistics (dict insertion order
included), freed-object order, surviving heap and profiler reports.

Nothing in the tool imports this module.

* :class:`ReferenceMarkSweepGC` -- per-object BFS marking and the
  two-pass, visit-order-independent Table 3 accounting;
* :class:`ReferenceRuntimeEnvironment` -- every allocation takes the
  general :meth:`~ReferenceRuntimeEnvironment.allocate` def (one call
  per step: align, overflow test, validated ``charge``,
  ``SimHeap.allocate``), the specification the production VM's single
  inlined allocator is held to with and without a heap limit; every
  wrapper built on it is a ``Reference*`` twin that charges each
  recorded operation through the validated ``vm.charge``;
* :func:`oracle_vm` -- either operation pipeline with either collector,
  the 2 x 2 grid the differential tests sweep;
* :func:`evaluate_condition` -- the concrete float walk of a rule
  condition over one profile (:class:`RuleEnvironment`), and
  :func:`reference_matches`, the rule loop around it: the specification
  ``tests/rules/test_equivalence.py`` holds the interval evaluator's
  point verdicts (:mod:`repro.rules.evaluator`) to;
* :func:`reference_replay` -- the interpretive trace replay that decodes
  and dispatches each op as it goes (``_apply_op``): the specification
  ``test_conformance.py`` and ``tests/collections/test_iterators.py``
  hold :func:`~repro.verify.trace.replay_trace`, which executes the
  compiled program (:class:`~repro.verify.compile.TraceInstance`), to;
* :func:`reference_find_min_heap` -- the minimal-heap probe plan driven
  with no bounds, every probe run: the specification ``tests/analysis/
  test_minheap.py`` holds :func:`~repro.analysis.minheap.find_min_heap`,
  which answers the probes its ``floor``/``ceiling`` decide without
  running them, to.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.analysis.minheap import _search_steps
from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.iterators import CollectionIterator, make_iterator
from repro.collections.registry import ImplementationRegistry, default_registry
from repro.collections.wrappers import (ChameleonCollection, ChameleonList,
                                        ChameleonMap, ChameleonSet)
from repro.memory.gc import MarkSweepGC
from repro.memory.heap import HeapObject, OutOfMemoryError
from repro.memory.semantic_maps import SemanticMap
from repro.memory.stats import GcCycleStats
from repro.profiler.counters import Op
from repro.profiler.report import ContextProfile
from repro.rules.ast import (AndCond, BinaryOp, Comparison, Condition,
                             ConstRef, DataRef, Expr, Number, NotCond,
                             OpCount, OpVariance, OrCond)
from repro.rules.engine import RuleEngine
from repro.rules.evaluator import EvaluationError
from repro.runtime.context import ContextKey
from repro.runtime.vm import RuntimeEnvironment
from repro.verify.compile import _state_snapshot
from repro.verify.trace import (_WRAPPER_CLASSES, ITER_METHODS, HandleTable,
                                ReplayResult, Trace, decode_value,
                                encode_value, max_handle, ops_for_kind)

__all__ = ["PIPELINES", "ReferenceChameleonList", "ReferenceChameleonMap",
           "ReferenceChameleonSet", "ReferenceMarkSweepGC",
           "ReferenceRuntimeEnvironment", "RuleEnvironment",
           "evaluate_condition", "evaluate_expression", "oracle_vm",
           "reference_matches", "reference_replay"]

#: The two implementations of each hot path: this module's loops and the
#: production code.
PIPELINES = ("reference", "production")


# ----------------------------------------------------------------------
# Collector
# ----------------------------------------------------------------------
class ReferenceMarkSweepGC(MarkSweepGC):
    """:class:`MarkSweepGC` with the reference mark and account loops."""

    def _mark(self) -> Set[int]:
        """Transitive closure from the heap's root set (per-object BFS)."""
        live = self.heap.ids()
        heap_get = self.heap.get
        marked: Set[int] = set()
        worklist = deque(
            root_id for root_id in self.heap.root_ids() if root_id in live
        )
        marked.update(worklist)
        popleft = worklist.popleft
        append = worklist.append
        while worklist:
            obj = heap_get(popleft())
            for ref_id in obj.refs.keys():
                if ref_id not in marked and ref_id in live:
                    marked.add(ref_id)
                    append(ref_id)
        return marked

    def _account(self, marked: Set[int], stats: GcCycleStats) -> None:
        """Compute Table 3 statistics over the marked set.

        Runs in two passes so the result is independent of visit order:
        first find every ADT anchor and the internal objects it claims,
        then attribute bytes.  An anchor that is itself claimed by another
        anchor (e.g. a backing implementation owned by a wrapper) is folded
        into its owner rather than reported separately.  Objects are
        visited in ascending id (= allocation) order so the statistics
        dicts carry the same insertion order as the production
        allocation-order sweep.
        """
        anchors: List[Tuple[HeapObject, SemanticMap]] = []
        claimed: Set[int] = set()
        heap_get = self.heap.get
        lookup = self.semantic_maps.lookup
        for obj_id in sorted(marked):
            obj = heap_get(obj_id)
            stats.live_data += obj.size
            semantic_map = lookup(obj)
            if semantic_map is not None:
                # A half-built ADT (construction-rooted, not yet adopted
                # by an owner) cannot answer the footprint protocol yet;
                # account it as plain data for this cycle.
                payload = obj.payload
                if payload is not None and getattr(
                        payload, "_construction_rooted", False):
                    continue
                anchors.append((obj, semantic_map))

        for anchor, semantic_map in anchors:
            claimed.update(semantic_map.internal_ids(anchor))

        anchor_ids = {a.obj_id for a, _ in anchors}
        for anchor, semantic_map in anchors:
            if anchor.obj_id in claimed:
                continue  # owned by an enclosing ADT (wrapper)
            triple = semantic_map.footprint(anchor)
            stats.collection_live += triple.live
            stats.collection_used += triple.used
            stats.collection_core += triple.core
            stats.collection_objects += 1
            stats.add_type_bytes(anchor.type_name, triple.live)
            context_id = semantic_map.context_id(anchor)
            if context_id is not None:
                stats.context(context_id).add(
                    triple.live, triple.used, triple.core)

        for obj_id in sorted(marked):
            if obj_id in claimed or obj_id in anchor_ids:
                continue
            obj = heap_get(obj_id)
            stats.add_type_bytes(obj.type_name, obj.size)


# ----------------------------------------------------------------------
# Operation pipeline
# ----------------------------------------------------------------------
class _ReferenceOps:
    """Construction and the kind-agnostic recorded operations as plain
    call chains: ``_record`` (a validated ``vm.charge`` plus the
    profiler's ``record_op``), the impl call, then ``_after_mutation``."""

    def __init__(self, vm: RuntimeEnvironment, *,
                 src_type: Optional[str] = None,
                 initial_capacity: Optional[int] = None,
                 context: Optional[ContextKey] = None,
                 impl: Optional[str] = None,
                 copy_from: Optional[ChameleonCollection] = None,
                 registry: Optional[ImplementationRegistry] = None,
                 use_shared_empty_iterator: bool = False,
                 impl_kwargs: Optional[Dict[str, Any]] = None) -> None:
        self.vm = vm
        self.registry = registry or default_registry()
        self.src_type = src_type or self.DEFAULT_SRC_TYPE
        self.use_shared_empty_iterator = use_shared_empty_iterator

        profile = (vm.profiling_enabled
                   and vm.profiler.should_sample(self.src_type))
        if vm.profiling_enabled and not profile:
            vm.profiler.on_unsampled_allocation(self.src_type)

        self.context_id = self._resolve_context(context, profile)
        choice = vm.choose_implementation(self.src_type, self.context_id)

        impl_name = impl
        capacity = initial_capacity
        merged_kwargs = dict(impl_kwargs or {})
        if choice is not None:
            if impl_name is None and choice.impl_name is not None:
                impl_name = choice.impl_name
            if choice.initial_capacity is not None:
                capacity = choice.initial_capacity
            if choice.impl_kwargs:
                merged_kwargs.update(choice.impl_kwargs)
        if impl_name is None:
            impl_name = self.registry.default_impl_for(self.src_type)

        # The new impl's anchor stays on the operand stack until
        # adopted; a construction that raises first leaves the stack as
        # it found it.
        operands = vm.heap.operands
        depth = len(operands)
        try:
            self.impl = self.registry.create(
                vm, impl_name, kind=self.KIND, initial_capacity=capacity,
                context_id=self.context_id, **merged_kwargs)

            self._fp_token = None
            self._fp_triple = None
            self._ids_token = None
            self._ids_list = []

            self._oci = None

            wrapper_size = vm.model.object_size(ref_fields=1)
            self.heap_obj = vm.allocate(
                self.src_type, wrapper_size, payload=self,
                context_id=self.context_id)
        except BaseException:
            del operands[depth:]
            raise
        # A sampled instance is registered once its object exists, so an
        # out-of-memory construction leaves the profiler untouched.
        if profile:
            self._oci = oci = vm.profiler.on_allocation(
                self.context_id, self.src_type, impl_name,
                initial_capacity=initial_capacity)
            profiler = vm.profiler
            self.heap_obj.on_death = lambda heap_obj: profiler.on_death(oci)
        self.heap_obj.add_ref(self.impl.anchor_id)
        self.impl.adopt()

        if copy_from is not None:
            self._fill_from(copy_from)

        tracer = vm.tracer
        if tracer is not None:
            tracer.on_collection_created(self)

    def size(self) -> int:
        self._record(Op.SIZE)
        return self.impl.size

    def is_empty(self) -> bool:
        self._record(Op.IS_EMPTY)
        return self.impl.is_empty

    def clear(self) -> None:
        self._record(Op.CLEAR)
        self.impl.clear()
        self._after_mutation()

    def iterate(self) -> CollectionIterator:
        empty = self.impl.is_empty
        self._record(Op.ITERATE)
        if self._oci is not None and empty:
            self._oci.record_op(Op.ITER_EMPTY)
        return make_iterator(self.vm, self.impl.iter_values(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)


class ReferenceChameleonList(_ReferenceOps, ChameleonList):
    """:class:`ChameleonList` on the reference operation pipeline."""

    def add(self, value: Any) -> None:
        self._record(Op.ADD)
        pinned = self._pin_args((value,))
        try:
            self.impl.add(value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def add_at(self, index: int, value: Any) -> None:
        self._record(Op.ADD_INDEX)
        pinned = self._pin_args((value,))
        try:
            self.impl.add_at(index, value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()

    def get(self, index: int) -> Any:
        self._record(Op.GET_INDEX)
        return self.impl.get(index)

    def set_at(self, index: int, value: Any) -> Any:
        self._record(Op.SET_INDEX)
        old = self.impl.set_at(index, value)
        self._after_mutation()
        return old

    def remove_at(self, index: int) -> Any:
        self._record(Op.REMOVE_INDEX)
        old = self.impl.remove_at(index)
        self._after_mutation()
        return old

    def remove_first(self) -> Any:
        self._record(Op.REMOVE_FIRST)
        old = self.impl.remove_first()
        self._after_mutation()
        return old

    def remove_value(self, value: Any) -> bool:
        self._record(Op.REMOVE_OBJECT)
        removed = self.impl.remove_value(value)
        self._after_mutation()
        return removed

    def contains(self, value: Any) -> bool:
        self._record(Op.CONTAINS)
        return self.impl.contains(value)

    def index_of(self, value: Any) -> int:
        self._record(Op.INDEX_OF)
        return self.impl.index_of(value)


class ReferenceChameleonSet(_ReferenceOps, ChameleonSet):
    """:class:`ChameleonSet` on the reference operation pipeline."""

    def add(self, value: Any) -> bool:
        self._record(Op.ADD)
        pinned = self._pin_args((value,))
        try:
            added = self.impl.add(value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()
        return added

    def remove_value(self, value: Any) -> bool:
        self._record(Op.REMOVE_OBJECT)
        removed = self.impl.remove_value(value)
        self._after_mutation()
        return removed

    def contains(self, value: Any) -> bool:
        self._record(Op.CONTAINS)
        return self.impl.contains(value)


class ReferenceChameleonMap(_ReferenceOps, ChameleonMap):
    """:class:`ChameleonMap` on the reference operation pipeline."""

    def put(self, key: Any, value: Any) -> Any:
        self._record(Op.PUT)
        pinned = self._pin_args((key, value))
        try:
            old = self.impl.put(key, value)
        finally:
            self._unpin_args(pinned)
        self._after_mutation()
        return old

    def get(self, key: Any) -> Any:
        self._record(Op.GET_OBJECT)
        return self.impl.get(key)

    def remove_key(self, key: Any) -> Any:
        self._record(Op.REMOVE_KEY)
        old = self.impl.remove_key(key)
        self._after_mutation()
        return old

    def contains_key(self, key: Any) -> bool:
        self._record(Op.CONTAINS_KEY)
        return self.impl.contains_key(key)

    def contains_value(self, value: Any) -> bool:
        self._record(Op.CONTAINS_VALUE)
        return self.impl.contains_value(value)

    def iterate_items(self) -> CollectionIterator:
        empty = self.impl.is_empty
        self._record(Op.ITERATE)
        if self._oci is not None and empty:
            self._oci.record_op(Op.ITER_EMPTY)
        return make_iterator(self.vm, self.impl.iter_items(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)

    def iterate_keys(self) -> CollectionIterator:
        empty = self.impl.is_empty
        self._record(Op.ITERATE)
        if self._oci is not None and empty:
            self._oci.record_op(Op.ITER_EMPTY)
        return make_iterator(self.vm, self.impl.iter_keys(), empty=empty,
                             use_shared_empty=self.use_shared_empty_iterator,
                             context_id=self.context_id)


class ReferenceRuntimeEnvironment(RuntimeEnvironment):
    """A VM on the reference operation pipeline.

    Every allocation takes the general :meth:`allocate` def below, and
    every wrapper constructed on this VM is its ``Reference*`` twin.
    The collector is whatever ``collector_factory`` builds (the
    production one by default).
    """

    wrapper_variants = {
        ChameleonList: ReferenceChameleonList,
        ChameleonSet: ReferenceChameleonSet,
        ChameleonMap: ReferenceChameleonMap,
    }

    def _install_allocate(self) -> None:
        """Keep the class-level :meth:`allocate` def for every
        allocation (no instance attribute shadows it)."""

    def allocate(self, type_name: str, size: int, *, payload: Any = None,
                 context_id: Optional[int] = None,
                 on_death: Optional[Callable[[HeapObject], None]] = None,
                 ) -> HeapObject:
        """Allocate an object, triggering GC / OOM per the heap budget.

        The general path, one call per step: ``model.align``, the
        overflow test, ``allocation_ticks`` through the validated
        ``charge``, and ``SimHeap.allocate``.
        """
        aligned = self.model.align(size)
        if self.gc.collecting:
            # Allocation from inside a death hook: never start a nested
            # cycle mid-sweep; the object is picked up by the next cycle.
            self._bytes_since_gc += aligned
            self.charge(self.costs.allocation_ticks(aligned))
            return self.heap.allocate(type_name, aligned, payload=payload,
                                      context_id=context_id,
                                      on_death=on_death)
        if (self.gc_threshold_bytes is not None
                and self._bytes_since_gc >= self.gc_threshold_bytes):
            # Periodic (young-generation analog) cycles are minor under
            # a generational collector; heap-pressure cycles are major.
            self.collect(major=False)
        if self._would_overflow(aligned):
            stats = self.collect()
            if self._would_overflow(aligned):
                self.oom_raised = True
                raise OutOfMemoryError(aligned, self.heap.occupied_bytes,
                                       self.heap.limit or 0)
            min_yield = self.gc_overhead_fraction * (self.heap.limit or 0)
            if stats.freed_bytes < min_yield:
                self._low_yield_gcs += 1
                if self._low_yield_gcs >= self.gc_overhead_limit:
                    self.oom_raised = True
                    raise OutOfMemoryError(aligned,
                                           self.heap.occupied_bytes,
                                           self.heap.limit or 0)
            else:
                self._low_yield_gcs = 0
        self._bytes_since_gc += aligned
        self.charge(self.costs.allocation_ticks(aligned))
        return self.heap.allocate(type_name, aligned, payload=payload,
                                  context_id=context_id, on_death=on_death)

    def _would_overflow(self, size: int) -> bool:
        """Whether allocating ``size`` more bytes would exceed the
        heap's byte limit."""
        heap = self.heap
        if heap.limit is None:
            return False
        return heap.occupied_bytes + heap.model.align(size) > heap.limit


def oracle_vm(ops: str = "reference", gc: str = "reference",
              **kwargs: Any) -> RuntimeEnvironment:
    """A VM running the ``ops`` operation pipeline and the ``gc``
    collector, each one of :data:`PIPELINES`; ``kwargs`` go to the
    :class:`RuntimeEnvironment` constructor."""
    for axis, choice in (("ops", ops), ("gc", gc)):
        if choice not in PIPELINES:
            raise ValueError(f"{axis} must be one of {PIPELINES}, "
                             f"got {choice!r}")
    if gc == "reference":
        kwargs["collector_factory"] = ReferenceMarkSweepGC
    vm_class = (ReferenceRuntimeEnvironment if ops == "reference"
                else RuntimeEnvironment)
    return vm_class(**kwargs)


# ----------------------------------------------------------------------
# Rule conditions
# ----------------------------------------------------------------------
_EPSILON = 1e-9


class RuleEnvironment:
    """Binds rule identifiers for one allocation context."""

    def __init__(self, profile: ContextProfile,
                 constants: Optional[Mapping[str, float]] = None) -> None:
        self.profile = profile
        self.constants: Dict[str, float] = dict(constants or {})

    # ------------------------------------------------------------------
    # Identifier resolution
    # ------------------------------------------------------------------
    def constant(self, name: str) -> float:
        try:
            return float(self.constants[name])
        except KeyError:
            raise EvaluationError(
                f"rule constant {name!r} is not bound; known constants: "
                f"{sorted(self.constants)}") from None

    def data(self, name: str) -> float:
        info = self.profile.info
        heap = self.profile.heap
        if name == "size":
            return info.final_size_stats.mean if info.final_size_stats.count else 0.0
        if name in ("maxSize", "avgMaxSize"):
            return info.avg_max_size
        if name == "maxMaxSize":
            return info.max_max_size
        if name == "initialCapacity":
            return info.avg_initial_capacity
        if name == "instances":
            return float(info.instances_allocated)
        if name == "deadInstances":
            return float(info.instances_dead)
        if name == "allOps":
            return info.all_ops_mean
        if name == "swaps":
            return float(info.swap_count)
        if name == "totLive":
            return float(heap.live.total) if heap else 0.0
        if name == "maxLive":
            return float(heap.live.max) if heap else 0.0
        if name == "totUsed":
            return float(heap.used.total) if heap else 0.0
        if name == "maxUsed":
            return float(heap.used.max) if heap else 0.0
        if name == "totCore":
            return float(heap.core.total) if heap else 0.0
        if name == "maxCore":
            return float(heap.core.max) if heap else 0.0
        if name == "liveCount":
            return float(heap.object_count.total) if heap else 0.0
        if name == "maxLiveCount":
            return float(heap.object_count.max) if heap else 0.0
        if name == "potential":
            return float(self.profile.total_potential)
        if name == "maxPotential":
            return float(self.profile.max_potential)
        raise EvaluationError(f"unknown data identifier {name!r}")


def evaluate_expression(expr: Expr, env: RuleEnvironment) -> float:
    """Evaluate an arithmetic expression to a float."""
    if isinstance(expr, Number):
        return expr.value
    if isinstance(expr, ConstRef):
        return env.constant(expr.name)
    if isinstance(expr, OpCount):
        return env.profile.info.op_mean(expr.op)
    if isinstance(expr, OpVariance):
        return env.profile.info.op_stddev(expr.op)
    if isinstance(expr, DataRef):
        return env.data(expr.name)
    if isinstance(expr, BinaryOp):
        left = evaluate_expression(expr.left, env)
        right = evaluate_expression(expr.right, env)
        if expr.operator == "+":
            return left + right
        if expr.operator == "-":
            return left - right
        if expr.operator == "*":
            return left * right
        if expr.operator == "/":
            if abs(right) < _EPSILON:
                raise EvaluationError("division by zero in rule expression")
            return left / right
        raise EvaluationError(f"unknown operator {expr.operator!r}")
    raise EvaluationError(f"cannot evaluate {type(expr).__name__} as value")


def evaluate_condition(condition: Condition, env: RuleEnvironment) -> bool:
    """Evaluate a boolean condition."""
    if isinstance(condition, Comparison):
        left = evaluate_expression(condition.left, env)
        right = evaluate_expression(condition.right, env)
        if condition.operator == "==":
            return math.isclose(left, right, abs_tol=_EPSILON)
        if condition.operator == "!=":
            return not math.isclose(left, right, abs_tol=_EPSILON)
        if condition.operator == "<":
            return left < right
        if condition.operator == "<=":
            return left <= right + _EPSILON
        if condition.operator == ">":
            return left > right
        if condition.operator == ">=":
            return left >= right - _EPSILON
        raise EvaluationError(f"unknown comparator {condition.operator!r}")
    if isinstance(condition, AndCond):
        return (evaluate_condition(condition.left, env)
                and evaluate_condition(condition.right, env))
    if isinstance(condition, OrCond):
        return (evaluate_condition(condition.left, env)
                or evaluate_condition(condition.right, env))
    if isinstance(condition, NotCond):
        return not evaluate_condition(condition.operand, env)
    raise EvaluationError(
        f"cannot evaluate {type(condition).__name__} as boolean")


def reference_matches(engine: RuleEngine,
                      profile: ContextProfile) -> List[str]:
    """Names of the rules ``engine`` fires at ``profile``, primary
    first: its type, stability and potential gates, then the concrete
    :func:`evaluate_condition`."""
    matches: List[str] = []
    env = RuleEnvironment(profile, engine.constants)
    size_stable = None  # lazily computed, shared across rules
    for spec in engine.rules:
        if not engine._type_matches(spec.rule.src_type, profile):
            continue
        if spec.requires_stable_size:
            if size_stable is None:
                size_stable = bool(
                    engine.stability.context_is_stable(profile.info))
            if not size_stable:
                continue
        if spec.space_gated and not engine._clears_potential(profile):
            continue
        if not evaluate_condition(spec.rule.condition, env):
            continue
        matches.append(spec.name)
    return matches


# ----------------------------------------------------------------------
# Trace replay
# ----------------------------------------------------------------------
def reference_replay(trace: Trace, impl_name: str,
                     registry: Optional[ImplementationRegistry] = None,
                     vm_factory: Callable[..., RuntimeEnvironment]
                     = RuntimeEnvironment) -> ReplayResult:
    """Replay ``trace`` against ``impl_name`` in a fresh, isolated VM,
    decoding and dispatching every op as it goes.

    The specification :func:`repro.verify.trace.replay_trace` (which
    compiles the trace and runs a
    :class:`~repro.verify.compile.TraceInstance`) is held to: identical
    ticks, per-step outcomes and drop-out step.
    """
    registry = registry or default_registry()
    vm = vm_factory(gc_threshold_bytes=None)

    handles = HandleTable()
    for handle in range(max_handle(trace.ops) + 1):
        obj = vm.allocate_data("TraceObj", ref_fields=1)
        vm.add_root(obj)
        handles.handle_for(obj)
        del handle

    wrapper_cls = _WRAPPER_CLASSES[trace.kind]
    wrapper = wrapper_cls(
        vm, src_type=trace.src_type, impl=impl_name, registry=registry,
        context=ContextKey.synthetic("repro.verify.replay"))
    wrapper.pin()

    outcomes: List[list] = []
    iterators: Dict[int, Any] = {}
    dropped_at: Optional[int] = None
    for step, op in enumerate(trace.ops):
        outcome = _apply_op(vm, wrapper, iterators, handles, op)
        outcomes.append(outcome)
        if outcome[0] == "unsup":
            dropped_at = step
            break
    vm.collect()
    return ReplayResult(impl_name=impl_name, outcomes=outcomes,
                        dropped_at=dropped_at, ticks=vm.now)


def _apply_op(vm: RuntimeEnvironment, wrapper: ChameleonCollection,
              iterators: Dict[int, Any], handles: HandleTable,
              op: list) -> list:
    name = op[0]
    kind = wrapper.KIND
    if name == "init":
        try:
            for enc in op[1]:
                value = decode_value(enc, handles)
                if kind is CollectionKind.MAP:
                    wrapper.impl.put(value[0], value[1])
                else:
                    wrapper.impl.add(value)
        except (UnsupportedOperation, TypeError):
            return ["unsup"]
        return ["ok", ["n"]]
    if name == "gc":
        vm.collect()
        return ["ok", ["n"]]
    if name == "swap":
        target, kwargs = op[1], (op[2] if len(op) > 2 else {})
        before = _state_snapshot(wrapper, handles)
        try:
            wrapper.swap_to(target, impl_kwargs=dict(kwargs) or None)
        except (UnsupportedOperation, TypeError):
            return ["unsup"]
        after = _state_snapshot(wrapper, handles)
        if before != after:
            return ["swap-mismatch", before, after]
        return ["ok", ["n"]]
    if name == "iter_new":
        slot, mode = op[1], op[2]
        method_name = ITER_METHODS.get(mode)
        if method_name is None or (mode != "values"
                                   and kind is not CollectionKind.MAP):
            return ["nop"]
        iterators[slot] = getattr(wrapper, method_name)()
        return ["ok", ["n"]]
    if name == "iter_next":
        iterator = iterators.get(op[1])
        if iterator is None:
            return ["nop"]
        try:
            value = next(iterator)
        except StopIteration:
            return ["stop"]
        return ["ok", encode_value(value, handles)]

    spec = ops_for_kind(kind).get(name)
    if spec is None:
        return ["nop"]
    args = _decode_call_args(spec, op[1:], handles)
    if args is None:
        return ["nop"]
    if name == "put_all":
        # Through a pair list, not a dict: a dict would collapse
        # Java-distinct keys (1 vs True vs 1.0).
        method: Any = _replay_put_all
        args = (wrapper,) + args
    else:
        method = getattr(wrapper, name)
    try:
        result = method(*args)
    except UnsupportedOperation:
        return ["unsup"]
    except TypeError:
        return ["unsup"]
    except (IndexError, KeyError) as exc:
        return ["raise", type(exc).__name__]
    return ["ok", encode_value(result, handles)]


def _decode_call_args(spec: Tuple[str, ...], raw_args: list,
                      handles: HandleTable) -> Optional[tuple]:
    if len(raw_args) != len(spec):
        return None
    args: List[Any] = []
    for kind, raw in zip(spec, raw_args):
        if kind == "v":
            args.append(decode_value(raw, handles))
        elif kind == "i":
            args.append(raw)
        elif kind == "vs":
            args.append([decode_value(enc, handles) for enc in raw])
        elif kind == "ps":
            args.append([decode_value(enc, handles) for enc in raw])
    return tuple(args)


def _replay_put_all(wrapper: ChameleonMap, pairs: List[Tuple[Any, Any]],
                    ) -> None:
    """Replay ``put_all`` from a pair list, mirroring the wrapper's
    bookkeeping (op record + size sample) without building a dict."""
    from repro.profiler.counters import Op
    wrapper._record(Op.PUT_ALL)
    for key, value in pairs:
        wrapper.impl.put(key, value)
    wrapper._after_mutation()


# ----------------------------------------------------------------------
# Minimal-heap search
# ----------------------------------------------------------------------
def reference_find_min_heap(attempt: Callable[[int], bool], low: int,
                            high: int, resolution: int = 2048) -> tuple:
    """Run the minimal-heap probe plan, calling ``attempt`` on every
    limit it probes.

    The specification :func:`repro.analysis.minheap.find_min_heap` is
    held to: the same minimum, and ``attempt`` calls that are exactly
    this loop's limits outside the decided ranges, in the same order.
    """
    if low < 0 or high <= low:
        raise ValueError("need 0 <= low < high")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    plan = _search_steps(low, high, resolution)
    try:
        limit = next(plan)
        while True:
            limit = plan.send(attempt(limit))
    except StopIteration as stop:
        return stop.value
