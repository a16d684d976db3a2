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

A second guard keeps dead code out: every private module-level function
or class (``def _x`` / ``class _X``) must be referenced somewhere in the
package outside its own definition.  A private name is not part of the
package's interface, so one that nothing in the package references is
dead.
"""

import ast
import collections
import pathlib

import repro

SOURCE_ROOT = pathlib.Path(repro.__file__).parent


def _parse_package(root):
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.rglob("*.py"))}


def _class_attribute_aug_assigns(root=SOURCE_ROOT):
    trees = _parse_package(root)
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


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _unreferenced_private_definitions(root=SOURCE_ROOT):
    trees = _parse_package(root)
    uses = collections.Counter(name for tree in trees.values()
                               for name in _referenced_names(tree))
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and uses[node.name] == list(
                        _referenced_names(node)).count(node.name)):
                yield f"{path.relative_to(root)}:{node.lineno}: {node.name}"


def test_every_private_module_level_definition_is_referenced():
    offenders = list(_unreferenced_private_definitions())
    assert not offenders, (
        "private module-level definitions nothing references (delete "
        "them):\n  " + "\n  ".join(offenders))


def test_private_definition_guard_detects_dead_code(tmp_path):
    (tmp_path / "module.py").write_text(
        "def _used():\n    return 1\n\n"
        "def _recursive(n):\n    return _recursive(n - 1)\n\n"
        "class _Dead:\n    pass\n\n"
        "def __getattr__(name):\n    return _used()\n")
    (tmp_path / "other.py").write_text(
        "import module\n\nVALUE = module._used\n")
    assert list(_unreferenced_private_definitions(tmp_path)) == [
        "module.py:4: _recursive", "module.py:7: _Dead"]
