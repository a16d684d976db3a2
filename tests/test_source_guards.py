"""Source-level guards for the simulator's hot paths.

Writing a class attribute (``HeapObject.graph_epoch += 1``) invalidates
CPython's attribute cache for that type, so every instance-attribute
read on it -- ``obj.refs``, ``obj.size``, ``obj.obj_id`` in the
allocator, the collector and the collection impls -- falls back to the
slow lookup until the cache warms up again.  One such write per edge
edit once cost the whole run a double-digit share of its wall time
without moving a tick, so no test of simulated behaviour can catch it.
This guard scans the package for augmented assignments to a class
attribute inside a function body.
"""

import ast
import pathlib

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def _class_attribute_aug_assigns(root=SOURCE_ROOT):
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.rglob("*.py"))}
    class_names = {node.name for tree in trees.values()
                   for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef)}
    class_names.add("cls")
    for path, tree in trees.items():
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                continue
            for node in ast.walk(function):
                if (isinstance(node, ast.AugAssign)
                        and isinstance(node.target, ast.Attribute)
                        and isinstance(node.target.value, ast.Name)
                        and node.target.value.id in class_names):
                    yield (f"{path.relative_to(root)}:{node.lineno}: "
                           f"{node.target.value.id}.{node.target.attr}")


def test_no_class_attribute_augmented_assignment_in_functions():
    offenders = sorted(set(_class_attribute_aug_assigns()))
    assert not offenders, (
        "class attributes written inside functions (keep mutable "
        "counters on an instance or a module-level object):\n  "
        + "\n  ".join(offenders))


def test_guard_detects_the_pattern(tmp_path):
    source = tmp_path / "module.py"
    source.write_text("class Node:\n    epoch = 0\n\n"
                      "def touch():\n    Node.epoch += 1\n")
    assert list(_class_attribute_aug_assigns(tmp_path)) == [
        "module.py:5: Node.epoch"]
