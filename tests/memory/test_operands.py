"""The heap's operand stack: in-flight operands of collection operations.

A collection operation holds its heap-object arguments the way a Java
caller holds them in stack slots: ``SimHeap.operands`` gets each one
pushed before the wrapper delegates and popped in a ``finally``, and the
hash engine keeps a not-yet-linked entry there while boxing may
allocate.  A collection under construction is held the same way: each
impl pushes its anchor as soon as it exists and its owner pops it with
``adopt`` once linked, or cuts the stack back if building raised.  So
the stack is empty between operations and constructions, whether or not
they raised, and marking treats every operand as a root for exactly the
span of the work that holds it.
"""

import ast
import dataclasses
import json
import pathlib

import pytest

import repro
from repro.collections.base import CollectionKind, UnsupportedOperation
from repro.collections.registry import default_registry
from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.memory.heap import OutOfMemoryError
from repro.memory.layout import MemoryModel
from repro.verify.oracle import PIPELINES, oracle_vm
from repro.verify.sanitizer import HeapSanitizer

GRID = [(ops, gc) for ops in PIPELINES for gc in PIPELINES]


def _record(vm):
    return vm.allocate_data("Rec", ref_fields=1)


# ----------------------------------------------------------------------
# Balance: empty after every operation
# ----------------------------------------------------------------------
def _list_ops(vm, wrapper):
    record = _record(vm)
    wrapper.add(record)
    wrapper.add(7)
    wrapper.add_at(0, _record(vm))
    wrapper.add_all([_record(vm), 3, _record(vm)])
    wrapper.add_all_at(1, [_record(vm), _record(vm)])
    wrapper.add_all(ChameleonList(vm))
    wrapper.set_at(0, record)
    wrapper.remove_value(record)


def _set_ops(vm, wrapper):
    wrapper.add(_record(vm))
    wrapper.add("Aa")
    wrapper.add_all([_record(vm), 5, _record(vm)])
    wrapper.add_all(ChameleonSet(vm))


def _map_ops(vm, wrapper):
    key = _record(vm)
    wrapper.put(key, _record(vm))
    wrapper.put(key, 9)
    wrapper.put(1, _record(vm))
    wrapper.put(2, 2)
    wrapper.put_all({_record(vm): 4, 5: _record(vm)})
    wrapper.put_all(ChameleonMap(vm))
    wrapper.remove_key(key)


@pytest.mark.parametrize("ops", PIPELINES)
@pytest.mark.parametrize("wrapper_class, script", [
    (ChameleonList, _list_ops), (ChameleonSet, _set_ops),
    (ChameleonMap, _map_ops)], ids=["list", "set", "map"])
def test_stack_is_empty_after_every_operation(ops, wrapper_class, script):
    vm = oracle_vm(ops=ops, gc="production", gc_threshold_bytes=1)
    heap = vm.heap
    wrapper = wrapper_class(vm).pin()
    depths = []
    vm.gc.pre_cycle_hooks.append(
        lambda gc: depths.append(len(heap.operands)))
    script(vm, wrapper)
    assert heap.operands == []
    assert set(heap.root_ids()) == {wrapper.heap_obj.obj_id}
    # Some cycle ran inside an operation that held an operand.
    assert max(depths) >= 1


@pytest.mark.parametrize("ops", PIPELINES)
def test_raising_add_at_unwinds(ops):
    vm = oracle_vm(ops=ops, gc="production")
    wrapper = ChameleonList(vm).pin()
    roots = list(vm.heap.root_ids())
    with pytest.raises(IndexError):
        wrapper.add_at(3, _record(vm))
    assert vm.heap.operands == []
    assert list(vm.heap.root_ids()) == roots


@pytest.mark.parametrize("ops", PIPELINES)
def test_raising_bulk_add_unwinds(ops):
    vm = oracle_vm(ops=ops, gc="production")
    wrapper = ChameleonList(vm, impl="SingletonList").pin()
    roots = list(vm.heap.root_ids())
    with pytest.raises(UnsupportedOperation):
        wrapper.add_all([_record(vm), _record(vm)])
    assert vm.heap.operands == []
    assert list(vm.heap.root_ids()) == roots


@pytest.mark.parametrize("ops", PIPELINES)
def test_map_put_that_runs_out_of_memory_leaks_no_root(ops):
    """The hash engine's unlinked entry is popped when boxing the key
    raises ``OutOfMemoryError``; it used to stay a named root."""
    vm = oracle_vm(ops=ops, gc="production", heap_limit=224,
                   gc_threshold_bytes=None)
    wrapper = ChameleonMap(vm).pin()
    roots = None
    with pytest.raises(OutOfMemoryError):
        for i in range(100):
            roots = list(vm.heap.root_ids())
            wrapper.put(i, i)
    assert vm.heap.operands == []
    assert list(vm.heap.root_ids()) == roots


# ----------------------------------------------------------------------
# Construction: the anchor is an operand until its owner adopts it
# ----------------------------------------------------------------------
_WRAPPERS = {CollectionKind.LIST: ChameleonList,
             CollectionKind.SET: ChameleonSet,
             CollectionKind.MAP: ChameleonMap}

#: Every registered implementation, as ``(wrapper class, impl name)``.
REGISTERED = [(_WRAPPERS[kind], name) for kind in CollectionKind
              for name in default_registry().names_for_kind(kind)]
_REGISTERED_IDS = [f"{wrapper.KIND.value}-{name}"
                   for wrapper, name in REGISTERED]


@pytest.mark.parametrize("ops", PIPELINES)
@pytest.mark.parametrize("wrapper_class, impl", REGISTERED,
                         ids=_REGISTERED_IDS)
def test_construction_leaves_only_pinned_roots(ops, wrapper_class, impl):
    vm = oracle_vm(ops=ops, gc="production", gc_threshold_bytes=1)
    sanitizer = HeapSanitizer().attach(vm)
    heap = vm.heap
    depths = []
    vm.gc.pre_cycle_hooks.append(
        lambda gc: depths.append(len(heap.operands)))
    wrapper = wrapper_class(vm, impl=impl).pin()
    assert heap.operands == []
    assert heap._roots == {wrapper.heap_obj.obj_id: 1}
    # The cycle before the wrapper's own allocation ran while the
    # anchor was pinned on the stack, and did not sweep it.
    assert max(depths) >= 1
    vm.collect()
    assert heap.contains(wrapper.impl.anchor_id)
    assert sanitizer.ok, sanitizer.report()


def _build_under_limit(ops, wrapper_class, impl, limit):
    """Build under a ``limit``-byte heap holding one pinned record;
    returns the VM, the record and the wrapper (``None`` if building
    ran out of memory)."""
    vm = oracle_vm(ops=ops, gc="production", heap_limit=limit,
                   gc_threshold_bytes=None)
    record = _record(vm)
    vm.add_root(record)
    try:
        wrapper = wrapper_class(vm, impl=impl)
    except OutOfMemoryError:
        wrapper = None
    return vm, record, wrapper


@pytest.mark.parametrize("ops", PIPELINES)
@pytest.mark.parametrize("wrapper_class, impl", REGISTERED,
                         ids=_REGISTERED_IDS)
def test_construction_that_runs_out_of_memory_leaves_no_pin(
        ops, wrapper_class, impl):
    """Raise the limit 8 bytes at a time until the collection fits, so
    building runs out of memory at each of its allocations in turn."""
    failed_at = set()
    limit = 16
    while True:
        vm, record, wrapper = _build_under_limit(ops, wrapper_class, impl,
                                                 limit)
        heap = vm.heap
        assert heap.operands == []
        assert heap._roots == {record.obj_id: 1}
        if wrapper is not None:
            break
        failed_at.add(heap.total_allocated_objects)
        vm.collect()
        assert list(heap.ids()) == [record.obj_id]
        limit += 8
    # The record is object 1; the last allocation is the wrapper's.
    assert failed_at == set(range(1, heap.total_allocated_objects))


@pytest.mark.parametrize("ops", PIPELINES)
def test_map_whose_impl_runs_out_of_memory_leaves_no_root(ops):
    """The 24-byte heap holds the HashMap anchor but not its table;
    the anchor used to stay a named root for the rest of the run."""
    vm = oracle_vm(ops=ops, gc="production", heap_limit=24,
                   gc_threshold_bytes=None)
    with pytest.raises(OutOfMemoryError):
        ChameleonMap(vm)
    assert vm.heap.total_allocated_objects == 1
    assert vm.heap.operands == []
    assert vm.heap._roots == {}
    vm.collect()
    assert len(vm.heap) == 0


@pytest.mark.parametrize("ops", PIPELINES)
@pytest.mark.parametrize("wrapper_class, impl", [
    (ChameleonSet, "SizeAdaptingSet"), (ChameleonMap, "SizeAdaptingMap")])
def test_hybrid_whose_inner_impl_runs_out_of_memory(ops, wrapper_class,
                                                    impl):
    # Room for the record and the hybrid's own anchor only.
    model = MemoryModel()
    limit = (model.object_size(ref_fields=1)
             + model.object_size(ref_fields=1, int_fields=1))
    vm, record, wrapper = _build_under_limit(ops, wrapper_class, impl,
                                             limit)
    assert wrapper is None
    assert vm.heap.total_allocated_objects == 2
    assert vm.heap.operands == []
    assert vm.heap._roots == {record.obj_id: 1}
    # Built directly, with no wrapper to cut the stack back, the
    # hybrid drops its own pin as well as its inner impl's.
    vm = oracle_vm(ops=ops, gc="production", heap_limit=limit,
                   gc_threshold_bytes=None)
    vm.add_root(_record(vm))
    with pytest.raises(OutOfMemoryError):
        default_registry().create(vm, impl, kind=wrapper_class.KIND)
    assert vm.heap.total_allocated_objects == 2
    assert vm.heap.operands == []


@pytest.mark.parametrize("ops", PIPELINES)
def test_swap_that_runs_out_of_memory_leaves_no_pin(ops):
    vm = oracle_vm(ops=ops, gc="production", gc_threshold_bytes=None)
    sanitizer = HeapSanitizer().attach(vm)
    wrapper = ChameleonList(vm).pin()
    for i in range(20):
        wrapper.add(_record(vm) if i % 2 else i)
    contents = wrapper.snapshot()
    old_impl = wrapper.impl
    # Room for the LinkedList's anchor and a few entries, not twenty.
    vm.heap.limit = vm.heap.occupied_bytes + 100
    with pytest.raises(OutOfMemoryError):
        wrapper.swap_to("LinkedList")
    assert vm.heap.operands == []
    assert vm.heap._roots == {wrapper.heap_obj.obj_id: 1}
    assert wrapper.impl is old_impl
    assert wrapper.snapshot() == contents
    vm.heap.limit = None
    vm.collect()
    wrapper.swap_to("LinkedList")
    assert wrapper.snapshot() == contents
    assert sanitizer.ok, sanitizer.report()


@pytest.mark.parametrize("ops", PIPELINES)
def test_hybrid_conversion_that_runs_out_of_memory_leaves_no_pin(ops):
    """Raise the limit until the conversion to a hash set fits: it runs
    out of memory building the hashed impl, then while refilling it,
    each time inside the wrapper's `add`, whose own operand lies below
    the hashed impl's pin."""
    failures = 0
    margin = 0
    while True:
        vm = oracle_vm(ops=ops, gc="production", gc_threshold_bytes=None)
        sanitizer = HeapSanitizer().attach(vm)
        wrapper = ChameleonSet(
            vm, impl="SizeAdaptingSet", initial_capacity=8,
            impl_kwargs={"conversion_threshold": 4}).pin()
        records = [_record(vm) for _ in range(5)]
        for record in records[:4]:
            wrapper.add(record)
        vm.heap.limit = vm.heap.occupied_bytes + margin
        try:
            wrapper.add(records[4])
        except OutOfMemoryError:
            failures += 1
        else:
            break
        finally:
            assert vm.heap.operands == []
            assert vm.heap._roots == {wrapper.heap_obj.obj_id: 1}
        assert not wrapper.impl.is_hashed
        assert wrapper.snapshot() == records
        vm.heap.limit = None
        vm.collect()
        wrapper.add(_record(vm))
        assert wrapper.impl.is_hashed
        assert sanitizer.ok, sanitizer.report()
        margin += 8
    assert wrapper.impl.is_hashed
    # The hashed impl's anchor, its table and each of five entries.
    assert failures >= 7


# ----------------------------------------------------------------------
# Marking: an operand is a root while its operation runs
# ----------------------------------------------------------------------
def _mid_op_script(vm):
    """Put an otherwise-unreachable record key with a value that must be
    boxed, under a collection at every allocation; returns what each
    cycle inside the put saw of the key."""
    wrapper = ChameleonMap(vm).pin()
    key = _record(vm)
    seen = []
    vm.gc.post_cycle_hooks.append(
        lambda gc, marked, stats, kept: seen.append(
            (key.obj_id in marked, len(vm.heap.operands))))
    wrapper.put(key, 10_000)
    vm.collect()
    return wrapper, key, seen


@pytest.mark.parametrize("ops, gc", GRID)
def test_unreachable_operand_survives_a_cycle_inside_the_operation(ops, gc):
    vm = oracle_vm(ops=ops, gc=gc, gc_threshold_bytes=1)
    wrapper, key, seen = _mid_op_script(vm)
    inside = seen[:-1]  # the last cycle is the explicit collect()
    # The entry and the box each trigger a cycle: the key alone, then
    # the key and the unlinked entry, are on the stack.
    assert [depth for _, depth in inside] == [1, 2]
    assert all(key_marked for key_marked, _ in seen)
    assert vm.heap.contains(key.obj_id)
    assert wrapper.get(key) == 10_000


def _cycle_json(vm):
    return json.dumps([dataclasses.asdict(stats)
                       for stats in vm.timeline.cycles])


def test_mid_operation_cycles_agree_across_the_pipeline_grid():
    legs = []
    for ops, gc in GRID:
        vm = oracle_vm(ops=ops, gc=gc, gc_threshold_bytes=1)
        _mid_op_script(vm)
        legs.append((vm.now, _cycle_json(vm)))
    assert legs[0][1] != "[]"
    assert all(leg == legs[0] for leg in legs[1:])


# ----------------------------------------------------------------------
# Guard: operation and construction pins never use the named-root table
# ----------------------------------------------------------------------
#: The lifetime API of a collection (``pin``/``unpin``) is a named root
#: by design: it is released in any order, not at the end of one op or
#: construction.
NAMED_ROOT_FUNCTIONS = {"pin", "unpin"}


def _named_root_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("add_root", "remove_root")):
                yield function.name, node.lineno


def test_operations_root_operands_only_on_the_operand_stack():
    root = pathlib.Path(repro.__file__).parent / "collections"
    paths = sorted(root.glob("*.py"))
    assert root / "wrappers.py" in paths and root / "base.py" in paths
    offenders = [f"{path.name}:{function}:{lineno}"
                 for path in paths
                 for function, lineno in _named_root_calls(path)
                 if function not in NAMED_ROOT_FUNCTIONS]
    assert not offenders, offenders


def test_named_root_guard_detects_the_pattern(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def put(vm, key):\n    vm.add_root(key)\n"
                      "    vm.heap.remove_root(key)\n")
    assert sorted(_named_root_calls(source)) == [("put", 2), ("put", 3)]
