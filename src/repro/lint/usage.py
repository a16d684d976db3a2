"""Layer 2: AST-based usage linter over workload/client sources.

The dynamic half of the tool observes what collections *did*; this pass
derives what they *must* do from the source alone.  It walks Python
sources for Chameleon wrapper allocation sites (``ChameleonList`` /
``ChameleonSet`` / ``ChameleonMap`` constructions, directly or through a
local factory function), binds them to variables, and scans the
enclosing scopes for the operations performed on each binding, tracking
loop nesting.  The resulting static op-mix facts become:

* findings (``L2-*``), reported next to the allocation site, and
* :class:`StaticPrediction` records -- "the dynamic profiler should fire
  builtin rule R at allocation context C" -- phrased in the suggestion
  format (``srcType:module.function``) so :mod:`repro.lint.drift` can
  diff them against a real profiling session.

The analysis is deliberately conservative: a binding that escapes its
scope (returned, stored into a structure, passed to a call) keeps its
loop-op facts but is exempt from the never-used/never-mutated checks,
and an allocation reached only through dynamic dispatch (``factory(vm)``
where ``factory`` is a runtime value) is not tracked at all -- those
show up as ``L3-dynamic-only`` drift entries instead of false positives.

This module also holds what both static passes share: the file reader
(:func:`read_sources`: an unreadable or non-UTF-8 file becomes one
``L2-io-error`` finding), the ``L2-syntax-error`` finding, and the
waivers.  A ``# lint: ignore[L2-growth-no-capacity]`` comment (ids
comma-separated, ``*`` for all) on a line suppresses matching findings
of either pass for that line (:func:`apply_waivers`).
"""

from __future__ import annotations

import ast
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.lint.findings import Finding, Severity, Span

__all__ = ["StaticPrediction", "AllocationSite", "lint_source_detailed",
           "lint_paths_detailed", "read_sources", "syntax_error_finding",
           "apply_waivers", "WRAPPER_KINDS"]

WRAPPER_KINDS: Dict[str, Tuple[str, str]] = {
    "ChameleonList": ("list", "ArrayList"),
    "ChameleonSet": ("set", "HashSet"),
    "ChameleonMap": ("map", "HashMap"),
}
"""Wrapper class name -> (ADT kind, default srcType)."""

_GROWTH_OPS = frozenset({"add", "add_at", "add_all", "add_all_at",
                         "put", "put_all"})
_MUTATING_OPS = _GROWTH_OPS | {"set_at", "remove_at", "remove_first",
                               "remove_value", "remove_key", "clear",
                               "swap_to"}
_NEUTRAL_METHODS = frozenset({"pin", "unpin", "snapshot", "snapshot_items",
                              "footprint", "adt_footprint",
                              "adt_internal_ids", "adt_element_count"})
_NEUTRAL_ATTRS = frozenset({"heap_obj", "impl", "src_type", "context_id",
                            "object_info", "vm", "registry"})

_WAIVER_RE = re.compile(r"#\s*lint:\s*ignore\[([^\]]*)\]")


@dataclass(frozen=True)
class StaticPrediction:
    """One statically derived expectation about the dynamic profile."""

    location: str
    """Allocation context location (``module.function``), matching the
    innermost :class:`~repro.runtime.context.ContextFrame` the profiler
    would capture for this site."""
    src_types: FrozenSet[str]
    """Candidate srcTypes (several when the source picks one
    conditionally, e.g. ``"ArrayList" if fixed else "LinkedList"``)."""
    predicted_rule: str
    """Name of the builtin rule expected to fire here."""
    finding_id: str
    """The ``L2-*`` fact the prediction is derived from."""
    file: str
    line: int

    def render(self) -> str:
        types = "/".join(sorted(self.src_types))
        return f"{types}:{self.location} -> {self.predicted_rule}"


@dataclass
class AllocationSite:
    """One statically visible wrapper allocation bound to a variable."""

    variable: str
    kind: str
    src_types: FrozenSet[str]
    capacity_set: bool
    location: str
    file: str
    line: int
    escapes: bool = False
    ops: List[Tuple[str, bool]] = field(default_factory=list)
    """``(method, inside_loop)`` for every recorded operation."""

    def op_names(self) -> Set[str]:
        return {name for name, _ in self.ops}

    def loop_ops(self) -> Set[str]:
        return {name for name, in_loop in self.ops if in_loop}

    @property
    def context(self) -> str:
        types = "/".join(sorted(self.src_types))
        return f"{types}:{self.location}:{self.line}"


def _module_name(path: str) -> str:
    """Dotted module name for ``path``, as the profiler would render it.

    The package root is taken to be the last ``repro`` path component
    (the layout this repository uses); otherwise the component after the
    last ``src``; otherwise the bare stem.
    """
    parts = os.path.normpath(path).split(os.sep)
    parts[-1] = os.path.splitext(parts[-1])[0]
    if parts[-1] == "__init__" and len(parts) > 1:
        parts = parts[:-1]
    if "repro" in parts:
        start = len(parts) - 1 - parts[::-1].index("repro")
    elif "src" in parts:
        start = len(parts) - parts[::-1].index("src")
    else:
        start = len(parts) - 1
    return ".".join(parts[start:]) or parts[-1]


def _literal_src_types(node: Optional[ast.expr],
                       default: str) -> FrozenSet[str]:
    """Candidate srcType strings of a ``src_type=`` keyword value."""
    if node is None:
        return frozenset({default})
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return frozenset({node.value})
    if isinstance(node, ast.IfExp):
        return (_literal_src_types(node.body, default)
                | _literal_src_types(node.orelse, default))
    return frozenset({default})


class _ConstScope:
    """Constant bindings visible at one point of the walk.

    Tracks, in document order, the simple assignments a capacity
    expression can reach through: module-level named constants, class
    attribute constants (class body or ``self.X = ...`` in methods), and
    function-local assignments plus keyword parameter defaults.  Only
    the *value expression nodes* are stored; resolution recurses through
    them on demand, so ``cap = SIZE if fixed else None`` chains work.
    """

    def __init__(self) -> None:
        self.module: Dict[str, ast.expr] = {}
        self.classes: Dict[str, Dict[str, ast.expr]] = {}
        self._class_stack: List[str] = []
        self._local_stack: List[Dict[str, ast.expr]] = []

    # -- walk hooks ----------------------------------------------------
    def enter_class(self, name: str) -> None:
        self._class_stack.append(name)
        self.classes.setdefault(name, {})

    def exit_class(self) -> None:
        self._class_stack.pop()

    def enter_function(self, node: ast.FunctionDef) -> None:
        locals_: Dict[str, ast.expr] = {}
        args = node.args
        positional = args.posonlyargs + args.args
        for arg, default in zip(positional[len(positional)
                                           - len(args.defaults):],
                                args.defaults):
            locals_[arg.arg] = default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                locals_[arg.arg] = default
        self._local_stack.append(locals_)

    def exit_function(self) -> None:
        self._local_stack.pop()

    def record_assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            return
        target = node.targets[0]
        if isinstance(target, ast.Name):
            if self._local_stack:
                self._local_stack[-1][target.id] = node.value
            elif self._class_stack:
                self.classes[self._class_stack[-1]][target.id] = node.value
            else:
                self.module[target.id] = node.value
        elif (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self" and self._class_stack):
            attrs = self.classes[self._class_stack[-1]]
            # Two *different* assignments make the attribute
            # non-constant; recording an identical node twice (the tree
            # is walked once per pass) is a no-op.
            if target.attr not in attrs:
                attrs[target.attr] = node.value
            else:
                prior = attrs[target.attr]
                if prior is not None and ast.dump(prior) != ast.dump(
                        node.value):
                    attrs[target.attr] = None  # type: ignore[assignment]

    # -- resolution ----------------------------------------------------
    def lookup_name(self, name: str) -> Optional[ast.expr]:
        if self._local_stack and name in self._local_stack[-1]:
            return self._local_stack[-1][name]
        return self.module.get(name)

    def lookup_self_attr(self, attr: str) -> Optional[ast.expr]:
        if not self._class_stack:
            return None
        return self.classes[self._class_stack[-1]].get(attr)


def _capacity_is_set(node: Optional[ast.expr],
                     consts: Optional[_ConstScope] = None,
                     depth: int = 0) -> bool:
    """Whether ``initial_capacity=`` reliably provides a capacity.

    A conditional that can evaluate to ``None`` (the manual-fix idiom
    ``cap if fixed else None``) counts as *not* set: the unfixed path is
    the one the profiler observes.  Named constants (module/class level),
    local assignments and keyword parameter defaults are resolved
    through simple constant propagation; an unresolvable expression is
    conservatively assumed to provide a capacity (the old behaviour).
    """
    if node is None:
        return False
    if depth > 8:
        return True
    if isinstance(node, ast.Constant):
        return node.value is not None
    if isinstance(node, ast.IfExp):
        return (_capacity_is_set(node.body, consts, depth + 1)
                and _capacity_is_set(node.orelse, consts, depth + 1))
    if consts is not None:
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Name):
            value = consts.lookup_name(node.id)
        elif (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            value = consts.lookup_self_attr(node.attr)
        else:
            return True
        if value is not None:
            return _capacity_is_set(value, consts, depth + 1)
    return True


@dataclass(frozen=True)
class _AllocSpec:
    kind: str
    src_types: FrozenSet[str]
    capacity_set: bool


def _spec_from_call(node: ast.Call,
                    consts: Optional[_ConstScope] = None,
                    ) -> Optional[_AllocSpec]:
    """The allocation spec of a direct wrapper construction, if any."""
    callee = node.func
    if not (isinstance(callee, ast.Name) and callee.id in WRAPPER_KINDS):
        return None
    kind, default = WRAPPER_KINDS[callee.id]
    src_node = capacity_node = None
    for keyword in node.keywords:
        if keyword.arg == "src_type":
            src_node = keyword.value
        elif keyword.arg == "initial_capacity":
            capacity_node = keyword.value
    return _AllocSpec(kind, _literal_src_types(src_node, default),
                      _capacity_is_set(capacity_node, consts))


def _unwrap_pin(node: ast.expr) -> ast.expr:
    """See through ``.pin()`` chains: they return the wrapper itself."""
    while (isinstance(node, ast.Call)
           and isinstance(node.func, ast.Attribute)
           and node.func.attr == "pin"):
        node = node.func.value
    return node


class _FactoryCollector(ast.NodeVisitor):
    """First pass: functions whose return value is a wrapper allocation.

    Calls to these by bare name or as ``self.<name>(...)`` are treated
    as allocations with the summarised spec (a one-level interprocedural
    summary -- enough for the factory-method idiom the paper highlights
    for TVLA's seven HashMap contexts).
    """

    def __init__(self) -> None:
        self.factories: Dict[str, _AllocSpec] = {}
        self._stack: List[str] = []
        self.consts = _ConstScope()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.consts.enter_class(node.name)
        self.generic_visit(node)
        self.consts.exit_class()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._stack.append(node.name)
        self.consts.enter_function(node)
        self.generic_visit(node)
        self.consts.exit_function()
        self._stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        self.consts.record_assign(node)
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is not None and self._stack:
            value = _unwrap_pin(node.value)
            if isinstance(value, ast.Call):
                spec = _spec_from_call(value, self.consts)
                if spec is not None:
                    self.factories[self._stack[-1]] = spec
        self.generic_visit(node)


class _Scope:
    """One function scope's variable -> allocation-site bindings."""

    def __init__(self, parent: Optional["_Scope"] = None) -> None:
        self.parent = parent
        self.bindings: Dict[str, Optional[AllocationSite]] = {}

    def lookup(self, name: str) -> Optional[AllocationSite]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            scope = scope.parent
        return None

    def bind(self, name: str, site: Optional[AllocationSite]) -> None:
        self.bindings[name] = site


class _UsageWalker(ast.NodeVisitor):
    """Second pass: bind allocations, scan operations, record facts."""

    def __init__(self, module: str, path: str,
                 factories: Dict[str, _AllocSpec],
                 consts: Optional[_ConstScope] = None) -> None:
        self.module = module
        self.path = path
        self.factories = factories
        self.consts = consts if consts is not None else _ConstScope()
        self.sites: List[AllocationSite] = []
        self.temporaries: List[Tuple[_AllocSpec, int]] = []
        self.scope = _Scope()
        self.function_stack: List[str] = ["<module>"]
        self.loop_depth = 0

    # -- helpers -------------------------------------------------------
    @property
    def location(self) -> str:
        return f"{self.module}.{self.function_stack[-1]}"

    def _resolve_spec(self, node: ast.expr) -> Optional[_AllocSpec]:
        """Allocation spec of an expression, through pin/factory sugar."""
        node = _unwrap_pin(node)
        if not isinstance(node, ast.Call):
            return None
        spec = _spec_from_call(node, self.consts)
        if spec is not None:
            return spec
        callee = node.func
        if isinstance(callee, ast.Name):
            return self.factories.get(callee.id)
        if (isinstance(callee, ast.Attribute)
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "self"):
            return self.factories.get(callee.attr)
        return None

    def _visit_all(self, nodes: Sequence[ast.AST]) -> None:
        for node in nodes:
            self.visit(node)

    # -- scopes --------------------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.consts.enter_class(node.name)
        self.generic_visit(node)
        self.consts.exit_class()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.function_stack.append(node.name)
        self.scope = _Scope(parent=self.scope)
        self.consts.enter_function(node)
        outer_depth, self.loop_depth = self.loop_depth, 0
        self._visit_all(node.body)
        self.loop_depth = outer_depth
        self.consts.exit_function()
        self.scope = self.scope.parent
        self.function_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- binding -------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.consts.record_assign(node)
        spec = self._resolve_spec(node.value)
        target = node.targets[0] if len(node.targets) == 1 else None
        if spec is not None and isinstance(target, ast.Name):
            site = AllocationSite(
                variable=target.id, kind=spec.kind,
                src_types=spec.src_types, capacity_set=spec.capacity_set,
                location=self.location, file=self.path, line=node.lineno)
            self.sites.append(site)
            self.scope.bind(target.id, site)
            value = _unwrap_pin(node.value)
            if isinstance(value, ast.Call):
                self._visit_all(value.args)
                self._visit_all([kw.value for kw in value.keywords])
            return
        for tgt in node.targets:
            if isinstance(tgt, ast.Name):
                # Rebinding kills the old association so later operations
                # on the name are not misattributed to the allocation.
                if self.scope.lookup(tgt.id) is not None:
                    self.scope.bind(tgt.id, None)
            else:
                self.visit(tgt)
        self.visit(node.value)

    # -- operations and escapes ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        callee = node.func
        if isinstance(callee, ast.Attribute):
            base = callee.value
            if isinstance(base, ast.Name):
                site = self.scope.lookup(base.id)
                if site is not None:
                    if callee.attr not in _NEUTRAL_METHODS:
                        site.ops.append((callee.attr, self.loop_depth > 0))
                    self._visit_all(node.args)
                    self._visit_all([kw.value for kw in node.keywords])
                    return
            else:
                # Iterating a factory's fresh return value: the classic
                # returned-and-iterated temporary.
                inner_spec = self._resolve_spec(base)
                if (inner_spec is not None
                        and callee.attr in ("iterate", "iterate_items",
                                            "iterate_keys", "to_list")):
                    self.temporaries.append((inner_spec, node.lineno))
        elif (isinstance(callee, ast.Name) and callee.id == "len"
                and len(node.args) == 1
                and isinstance(node.args[0], ast.Name)):
            site = self.scope.lookup(node.args[0].id)
            if site is not None:
                site.ops.append(("size", self.loop_depth > 0))
                return
        self.generic_visit(node)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            site = self.scope.lookup(node.id)
            if site is not None:
                site.escapes = True

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name)
                and self.scope.lookup(node.value.id) is not None
                and node.attr in _NEUTRAL_ATTRS):
            return
        self.generic_visit(node)

    # -- loops ---------------------------------------------------------
    def visit_For(self, node: ast.For) -> None:
        iter_spec = self._resolve_spec(node.iter)
        if iter_spec is not None:
            self.temporaries.append((iter_spec, node.iter.lineno))
        else:
            self.visit(node.iter)
        if isinstance(node.target, ast.Name):
            if self.scope.lookup(node.target.id) is not None:
                self.scope.bind(node.target.id, None)
        self.loop_depth += 1
        self._visit_all(node.body)
        self.loop_depth -= 1
        self._visit_all(node.orelse)

    visit_AsyncFor = visit_For

    def visit_While(self, node: ast.While) -> None:
        self.visit(node.test)
        self.loop_depth += 1
        self._visit_all(node.body)
        self.loop_depth -= 1
        self._visit_all(node.orelse)


def _site_findings(site: AllocationSite,
                   ) -> Tuple[List[Finding], List[StaticPrediction]]:
    findings: List[Finding] = []
    predictions: List[StaticPrediction] = []
    span = Span(file=site.file, line=site.line)

    def fact(finding_id: str, severity: Severity, message: str,
             predicted: Optional[str] = None,
             fix_hint: Optional[str] = None) -> None:
        findings.append(Finding(
            id=finding_id, severity=severity, message=message, span=span,
            fix_hint=fix_hint, context=site.context,
            predicted_rule=predicted))
        if predicted is not None:
            predictions.append(StaticPrediction(
                location=site.location, src_types=site.src_types,
                predicted_rule=predicted, finding_id=finding_id,
                file=site.file, line=site.line))

    loop_ops = site.loop_ops()
    types = "/".join(sorted(site.src_types))
    if site.kind == "list" and "contains" in loop_ops:
        fact("L2-contains-in-loop", Severity.WARNING,
             f"{site.variable!r} ({types}) takes contains() inside a "
             f"loop; linear membership tests dominate on large lists",
             predicted=("contains-heavy-list"
                        if "ArrayList" in site.src_types else None),
             fix_hint="consider a set, or expect the contains-heavy-list "
                      "rule to fire")
    if site.kind == "list" and "get" in loop_ops \
            and "LinkedList" in site.src_types:
        fact("L2-indexed-get-in-loop", Severity.WARNING,
             f"{site.variable!r} may be a LinkedList read with get(i) "
             f"inside a loop; positional reads on a linked list are "
             f"linear each",
             predicted="random-access-linked-list",
             fix_hint="replace with ArrayList")
    if loop_ops & _GROWTH_OPS and not site.capacity_set:
        fact("L2-growth-no-capacity", Severity.WARNING,
             f"{site.variable!r} ({types}) grows inside a loop but is "
             f"allocated without an initial capacity; it will resize "
             f"incrementally",
             predicted="incremental-resizing",
             fix_hint="pass initial_capacity= at the allocation")
    if not site.ops and not site.escapes:
        fact("L2-never-used", Severity.WARNING,
             f"{site.variable!r} ({types}) is allocated but never "
             f"operated on",
             predicted="redundant-collection",
             fix_hint="delete the allocation")
    elif (site.ops and not site.escapes
            and not (site.op_names() & _MUTATING_OPS)):
        fact("L2-never-mutated", Severity.NOTE,
             f"{site.variable!r} ({types}) is never mutated after "
             f"construction; an immutable or fixed-shape implementation "
             f"would do")
    return findings, predictions


def apply_waivers(source: str, findings: Sequence[Finding],
                  ) -> Tuple[List[Finding], Dict[str, int]]:
    """Drop the findings a ``# lint: ignore[...]`` comment on their line
    silences; returns ``(kept, per-id waived counts)``."""
    waivers: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _WAIVER_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")
                   if part.strip()}
            waivers[lineno] = ids or {"*"}
    kept: List[Finding] = []
    waived: Dict[str, int] = Counter()
    for finding in findings:
        ids = waivers.get(finding.span.line, ())
        if "*" in ids or finding.id in ids:
            waived[finding.id] += 1
        else:
            kept.append(finding)
    return kept, waived


def syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    """The one ``L2-syntax-error`` finding both passes report for a file
    that does not parse (equal findings, so a merged report keeps one)."""
    return Finding(id="L2-syntax-error", severity=Severity.ERROR,
                   message=f"cannot parse: {exc.msg}",
                   span=Span(file=path, line=exc.lineno or 0,
                             column=exc.offset))


def lint_source_detailed(
        source: str, path: str,
) -> Tuple[List[Finding], List[StaticPrediction], Dict[str, int]]:
    """Lint one Python source string; returns ``(findings, predictions,
    waived)``, where ``waived`` maps finding ids to the number of
    findings a ``# lint: ignore[...]`` comment silenced."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [syntax_error_finding(path, exc)], [], {}
    collector = _FactoryCollector()
    collector.visit(tree)
    module = _module_name(path)
    walker = _UsageWalker(module, path, collector.factories,
                          collector.consts)
    walker.visit(tree)

    findings: List[Finding] = []
    predictions: List[StaticPrediction] = []
    for site in walker.sites:
        site_findings, site_predictions = _site_findings(site)
        findings.extend(site_findings)
        predictions.extend(site_predictions)
    for spec, lineno in walker.temporaries:
        types = "/".join(sorted(spec.src_types))
        findings.append(Finding(
            id="L2-temporary-iterated", severity=Severity.WARNING,
            message=f"freshly built {types} collection is returned and "
                    f"immediately iterated; the copy is redundant",
            span=Span(file=path, line=lineno),
            fix_hint="iterate the source directly",
            predicted_rule="redundant-copying"))

    kept, waived = apply_waivers(source, findings)
    return kept, predictions, waived


def _expand_paths(paths: Sequence[str]) -> List[str]:
    """Every file under ``paths``, each once: paths are normalised
    (``os.path.normpath``) before duplicates are dropped, so a file
    named both inside a directory and on its own is read once."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in os.walk(path):
                for name in sorted(names):
                    if name.endswith(".py"):
                        files.append(os.path.normpath(
                            os.path.join(root, name)))
        else:
            files.append(os.path.normpath(path))
    return sorted(set(files))


def read_sources(paths: Sequence[str], errors: List[Finding],
                 ) -> Iterator[Tuple[str, str]]:
    """``(file, source)`` for every ``.py`` file under ``paths`` (files
    or directories); a file that cannot be read or is not UTF-8 yields
    nothing and appends one ``L2-io-error`` finding to ``errors``."""
    for file_path in _expand_paths(paths):
        try:
            with open(file_path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            errors.append(Finding(
                id="L2-io-error", severity=Severity.ERROR,
                message=f"cannot read: {exc}", span=Span(file=file_path)))
            continue
        yield file_path, source


def lint_paths_detailed(
        paths: Sequence[str],
) -> Tuple[List[Finding], List[StaticPrediction], Dict[str, int]]:
    """Lint every ``.py`` file under ``paths`` (files or directories);
    returns ``(findings, predictions, aggregated waived counts)``."""
    findings: List[Finding] = []
    predictions: List[StaticPrediction] = []
    waived: Dict[str, int] = Counter()
    for file_path, source in read_sources(paths, findings):
        file_findings, file_predictions, file_waived = \
            lint_source_detailed(source, file_path)
        findings.extend(file_findings)
        predictions.extend(file_predictions)
        waived.update(file_waived)
    return findings, predictions, waived
