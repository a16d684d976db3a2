"""The heap's operand stack: in-flight operands of collection operations.

A collection operation holds its heap-object arguments the way a Java
caller holds them in stack slots: ``SimHeap.operands`` gets each one
pushed before the wrapper delegates and popped in a ``finally``, and the
hash engine keeps a not-yet-linked entry there while boxing may
allocate.  So the stack is empty between operations, whether or not the
operation raised, and marking treats every operand as a root for
exactly the span of the operation that holds it.
"""

import ast
import dataclasses
import json
import pathlib

import pytest

import repro
from repro.collections.base import UnsupportedOperation
from repro.collections.wrappers import (ChameleonList, ChameleonMap,
                                        ChameleonSet)
from repro.memory.heap import OutOfMemoryError
from repro.verify.oracle import PIPELINES, oracle_vm

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
# Guard: per-operation pins never go through the named-root table
# ----------------------------------------------------------------------
#: The lifetime API of a collection (``pin``/``unpin``) is a named root
#: by design: it is released in any order, not at the end of one op.
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
    offenders = [f"{name}:{function}:{lineno}"
                 for name in ("wrappers.py", "hashing.py")
                 for function, lineno in _named_root_calls(root / name)
                 if function not in NAMED_ROOT_FUNCTIONS]
    assert not offenders, offenders


def test_named_root_guard_detects_the_pattern(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("def put(vm, key):\n    vm.add_root(key)\n"
                      "    vm.heap.remove_root(key)\n")
    assert sorted(_named_root_calls(source)) == [("put", 2), ("put", 3)]
