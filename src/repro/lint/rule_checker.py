"""Layer 1: semantic checks over parsed Fig. 4 rules.

Four check families, each with stable finding ids:

* **Resolution** -- every ``ConstRef`` is bound in the constant table
  (``L1-unknown-constant``), every ``DataRef`` names a Table 1/Table 3
  metric (``L1-unknown-data``), every operation counter is a member of
  the :class:`~repro.profiler.counters.Op` vocabulary
  (``L1-unknown-op``; unreachable through the parser, which already
  rejects unknown spellings, but AST-built rules get the same check,
  and such a rule is left out of the two analyses below).
* **Actions** -- replacement targets exist in the
  :class:`~repro.collections.registry.ImplementationRegistry`
  (``L1-unknown-impl``), can back the srcType's ADT kind
  (``L1-kind-mismatch``), and capacity arguments only appear where the
  implementation honours them (``L1-capacity-ignored``).  The srcType
  itself must be a known source type, ADT-kind name or ``Collection``
  (``L1-unknown-src-type``).
* **Interval domain** -- conditions must be satisfiable
  (``L1-unsatisfiable``) and not tautological (``L1-tautology``); see
  :mod:`repro.rules.evaluator`.
* **Pairwise overlap** -- two rules on overlapping type domains whose
  conditions are jointly satisfiable both fire on the same context; the
  engine's first-match priority makes the later one secondary.  An
  exact condition duplicate is ``L1-shadowed-duplicate``; distinct but
  overlapping conditions with *conflicting replacement targets* are
  ``L1-overlap-conflict``; benign overlaps (same target, or advice
  actions) are reported as notes (``L1-overlap``).

:func:`validate_rules` is the eager construction-time subset: only the
defects that would otherwise surface as a raw ``KeyError`` deep in
evaluation or apply (unknown constants, unregistered replacement
targets, unknown metrics) raise a :class:`RuleValidationError`, and only
the resolution and action checks that can find them run.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.collections.base import CollectionKind
from repro.collections.registry import (ImplementationRegistry,
                                        default_registry)
from repro.lint.findings import Finding, RuleValidationError, Severity, Span
from repro.rules.ast import (ActionKind, AndCond, BinaryOp, Comparison,
                             Condition, ConstRef, DataRef, Expr, NotCond,
                             OpCount, OpVariance, OrCond, Rule)
from repro.rules.builtin import RuleSpec
from repro.rules.evaluator import Tri, analyze_condition
from repro.rules.parser import DATA_NAMES, ParseError, parse_rule
from repro.rules.suggestions import RuleCategory

__all__ = ["check_rules", "validate_rules", "overlap_report",
           "load_rules_file", "CAPACITY_IGNORING_IMPLS"]

_KIND_NAMES = {"List": CollectionKind.LIST, "Set": CollectionKind.SET,
               "Map": CollectionKind.MAP}

CAPACITY_IGNORING_IMPLS = frozenset({
    "LinkedList", "SingletonList", "EmptyList",
    "LazyArrayList", "LazySet", "LazyMap",
})
"""Implementations whose factories accept but never honour an initial
capacity (linked/lazy/fixed-shape structures) -- a capacity argument on a
replacement with one of these is dead weight in the rule."""

_FATAL_IDS = frozenset({"L1-unknown-constant", "L1-unknown-impl",
                        "L1-unknown-data", "L1-unknown-op"})
"""Finding ids that eager engine validation escalates to an exception."""


def _spec_span(spec: RuleSpec) -> Span:
    if spec.origin is not None:
        return Span(file=spec.origin[0], line=spec.origin[1])
    return Span(file="<rules>", line=0)


def _walk_exprs(node) -> Iterable[Expr]:
    """Every expression node reachable from a condition or expression."""
    if isinstance(node, (AndCond, OrCond)):
        yield from _walk_exprs(node.left)
        yield from _walk_exprs(node.right)
    elif isinstance(node, NotCond):
        yield from _walk_exprs(node.operand)
    elif isinstance(node, Comparison):
        yield from _walk_exprs(node.left)
        yield from _walk_exprs(node.right)
    elif isinstance(node, BinaryOp):
        yield node
        yield from _walk_exprs(node.left)
        yield from _walk_exprs(node.right)
    elif isinstance(node, Expr):
        yield node


def _type_domain(src_type: str,
                 registry: ImplementationRegistry) -> Tuple[Set[str], bool]:
    """``(source types covered, src_type is known)`` for a rule's type."""
    if src_type == "Collection":
        return set(registry.known_source_types()), True
    kind = _KIND_NAMES.get(src_type)
    if kind is not None:
        return {name for name in registry.known_source_types()
                if registry.kind_of(name) is kind}, True
    if src_type in registry.known_source_types():
        return {src_type}, True
    return {src_type}, False


class _RuleChecker:
    def __init__(self, specs: Sequence[RuleSpec],
                 constants: Optional[Mapping[str, float]],
                 registry: Optional[ImplementationRegistry]) -> None:
        from repro.rules.builtin import DEFAULT_CONSTANTS

        self.specs = list(specs)
        self.constants = dict(DEFAULT_CONSTANTS)
        if constants:
            self.constants.update(constants)
        self.registry = registry or default_registry()
        self.findings: List[Finding] = []

    def report(self, finding_id: str, severity: Severity, spec: RuleSpec,
               message: str, fix_hint: Optional[str] = None) -> None:
        self.findings.append(Finding(
            id=finding_id, severity=severity,
            message=f"rule {spec.name!r}: {message}",
            span=_spec_span(spec), fix_hint=fix_hint,
            rule_name=spec.name))

    # ------------------------------------------------------------------
    # (a) reference resolution
    # ------------------------------------------------------------------
    def check_references(self, spec: RuleSpec) -> bool:
        """Report unresolved references; False if an op is unknown.

        The condition analyses cannot name an off-vocabulary op, so a
        rule with one is left out of them.
        """
        from repro.profiler.counters import Op

        ops_known = True
        for expr in _walk_exprs(spec.rule.condition):
            if isinstance(expr, ConstRef):
                if expr.name not in self.constants:
                    known = ", ".join(sorted(self.constants))
                    self.report(
                        "L1-unknown-constant", Severity.ERROR, spec,
                        f"constant {expr.name!r} is not bound",
                        fix_hint=f"bind it at engine construction or use "
                                 f"one of: {known}")
            elif isinstance(expr, DataRef):
                if expr.name not in DATA_NAMES:
                    self.report(
                        "L1-unknown-data", Severity.ERROR, spec,
                        f"data identifier {expr.name!r} is not in the "
                        f"Table 1/Table 3 metric schema")
            elif isinstance(expr, (OpCount, OpVariance)):
                if not isinstance(expr.op, Op):
                    ops_known = False
                    self.report(
                        "L1-unknown-op", Severity.ERROR, spec,
                        f"operation {expr.op!r} is not in the profiler's "
                        f"vocabulary")
        return ops_known

    # ------------------------------------------------------------------
    # (b) action validation
    # ------------------------------------------------------------------
    def check_action(self, spec: RuleSpec) -> None:
        rule = spec.rule
        domain, known_type = _type_domain(rule.src_type, self.registry)
        if not known_type:
            self.report(
                "L1-unknown-src-type", Severity.ERROR, spec,
                f"source type {rule.src_type!r} is not registered",
                fix_hint="known: Collection, List, Set, Map, "
                         + ", ".join(self.registry.known_source_types()))
        if rule.action.kind is not ActionKind.REPLACE:
            return
        impl = rule.action.impl_name
        backed_kinds = [kind for kind in CollectionKind
                        if self.registry.supports(impl, kind)]
        if not backed_kinds:
            names = sorted({name for kind in CollectionKind
                            for name in self.registry.names_for_kind(kind)})
            self.report(
                "L1-unknown-impl", Severity.ERROR, spec,
                f"replacement target {impl!r} is not a registered "
                f"implementation",
                fix_hint="registered: " + ", ".join(names))
            return
        if known_type:
            # Replacement changes the backing implementation, not the ADT:
            # the target must support() the kind of every source type the
            # rule can match.
            src_kinds = {self.registry.kind_of(name) for name in domain
                         if name in set(self.registry.known_source_types())}
            uncovered = sorted(kind.value for kind in src_kinds
                               if kind not in backed_kinds)
            if src_kinds and uncovered:
                self.report(
                    "L1-kind-mismatch", Severity.ERROR, spec,
                    f"replacement target {impl!r} cannot back "
                    f"{'/'.join(uncovered)} (it backs "
                    f"{'/'.join(k.value for k in backed_kinds)}); the rule "
                    f"matches {rule.src_type!r} contexts")
        if (rule.action.capacity is not None
                and impl in CAPACITY_IGNORING_IMPLS):
            self.report(
                "L1-capacity-ignored", Severity.WARNING, spec,
                f"{impl!r} ignores initial-capacity arguments; "
                f"({rule.action.capacity}) has no effect",
                fix_hint="drop the capacity argument")

    # ------------------------------------------------------------------
    # (c) interval-domain condition analysis
    # ------------------------------------------------------------------
    def check_condition(self, spec: RuleSpec) -> None:
        analysis = analyze_condition(spec.rule.condition, self.constants)
        if analysis.verdict is Tri.FALSE:
            self.report(
                "L1-unsatisfiable", Severity.ERROR, spec,
                "condition is unsatisfiable under the interval domain "
                "(every metric is non-negative; see DESIGN.md 3.3) -- "
                "the rule can never fire")
        elif analysis.verdict is Tri.TRUE:
            self.report(
                "L1-tautology", Severity.WARNING, spec,
                "condition holds for every profile; the rule fires "
                "unconditionally on matching types and shadows every "
                "later rule for them")

    # ------------------------------------------------------------------
    # (d) pairwise overlap / shadowing
    # ------------------------------------------------------------------
    def check_overlaps(self, specs: Sequence[RuleSpec]) -> None:
        for later_index, later in enumerate(specs):
            for earlier in specs[:later_index]:
                self._check_pair(earlier, later)

    def _joint_satisfiable(self, first: Rule, second: Rule) -> bool:
        joint = AndCond(first.condition, second.condition)
        return analyze_condition(joint, self.constants).satisfiable

    def _check_pair(self, earlier: RuleSpec, later: RuleSpec) -> None:
        earlier_domain, _ = _type_domain(earlier.rule.src_type,
                                         self.registry)
        later_domain, _ = _type_domain(later.rule.src_type, self.registry)
        if not (earlier_domain & later_domain):
            return
        if not self._joint_satisfiable(earlier.rule, later.rule):
            return
        earlier_action = earlier.rule.action
        later_action = later.rule.action
        conflicting = (
            earlier_action.kind is ActionKind.REPLACE
            and later_action.kind is ActionKind.REPLACE
            and earlier_action.impl_name != later_action.impl_name)
        if (earlier.rule.condition == later.rule.condition
                and earlier.rule.src_type == later.rule.src_type):
            self.report(
                "L1-shadowed-duplicate",
                Severity.ERROR if conflicting else Severity.WARNING,
                later,
                f"duplicate of earlier rule {earlier.name!r} "
                f"(same srcType and condition); first-match priority "
                f"means it never becomes the primary suggestion"
                + (f" -- and the targets conflict "
                   f"({earlier_action.impl_name!r} vs "
                   f"{later_action.impl_name!r})" if conflicting else ""),
                fix_hint="remove one of the two rules")
            return
        if conflicting:
            self.report(
                "L1-overlap-conflict", Severity.WARNING, later,
                f"overlaps earlier rule {earlier.name!r} on "
                f"{sorted(earlier_domain & later_domain)} with a "
                f"conflicting replacement target "
                f"({earlier_action.impl_name!r} wins by priority over "
                f"{later_action.impl_name!r})",
                fix_hint="tighten one condition or reorder deliberately")
        else:
            self.report(
                "L1-overlap", Severity.NOTE, later,
                f"may fire together with earlier rule {earlier.name!r} "
                f"on {sorted(earlier_domain & later_domain)}; "
                f"{later.name!r} becomes a secondary suggestion there")

    # ------------------------------------------------------------------
    def run(self) -> List[Finding]:
        analysable = []
        for spec in self.specs:
            ops_known = self.check_references(spec)
            self.check_action(spec)
            if ops_known:
                self.check_condition(spec)
                analysable.append(spec)
        self.check_overlaps(analysable)
        return self.findings


def check_rules(specs: Sequence[RuleSpec],
                constants: Optional[Mapping[str, float]] = None,
                registry: Optional[ImplementationRegistry] = None,
                ) -> List[Finding]:
    """Run every Layer 1 check over ``specs``; returns the findings.

    ``constants`` defaults to :data:`DEFAULT_CONSTANTS`; ``registry`` to
    the process-wide implementation registry.
    """
    return _RuleChecker(specs, constants, registry).run()


def validate_rules(specs: Sequence[RuleSpec],
                   constants: Optional[Mapping[str, float]] = None,
                   registry: Optional[ImplementationRegistry] = None,
                   ) -> None:
    """Eager construction-time validation (the engine's entry point).

    Raises :class:`RuleValidationError` for the defect classes that
    would otherwise surface as raw ``KeyError``s mid-run: unknown
    constants, unknown metrics/operations, unregistered replacement
    targets.  Warnings and overlap notes never block construction --
    ``check_rules`` reports them through the lint CLI instead.

    Every fatal id comes from the resolution and action checks, so only
    those run: the condition and pairwise-overlap analyses (the latter
    quadratic in the rule count) can never fail construction.  The
    findings, and their order, are those of ``check_rules`` filtered to
    the fatal ids.
    """
    checker = _RuleChecker(specs, constants, registry)
    for spec in checker.specs:
        checker.check_references(spec)
        checker.check_action(spec)
    fatal = [finding for finding in checker.findings
             if finding.id in _FATAL_IDS]
    if fatal:
        raise RuleValidationError(fatal)


def overlap_report(specs: Sequence[RuleSpec],
                   constants: Optional[Mapping[str, float]] = None,
                   registry: Optional[ImplementationRegistry] = None,
                   ) -> str:
    """Human-readable pairwise overlap/shadowing report.

    Line numbers are deliberately omitted so the report is stable under
    unrelated edits to the rule definitions' source file -- the golden
    copy under ``tests/lint/`` pins the builtin Table 2 set's hygiene.
    """
    findings = [finding
                for finding in check_rules(specs, constants, registry)
                if finding.id.startswith("L1-overlap")
                or finding.id == "L1-shadowed-duplicate"]
    lines = [f"pairwise overlap report ({len(list(specs))} rules, "
             f"{len(findings)} overlapping pair(s))"]
    for finding in findings:
        lines.append(f"  [{finding.id}] {finding.message}")
    return "\n".join(lines)


def load_rules_file(path: str) -> List[RuleSpec]:
    """Parse a rules file: one Fig. 4 rule per line.

    Blank lines and ``//`` comments are skipped.  Each rule becomes a
    :class:`RuleSpec` named ``<stem>:<line>`` with its origin set to the
    file/line, so findings carry real spans.  A syntax error is rethrown
    as :class:`ParseError` with the file and line prepended.
    """
    import os

    specs: List[RuleSpec] = []
    stem = os.path.splitext(os.path.basename(path))[0]
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("//"):
                continue
            try:
                rule = parse_rule(line)
            except ParseError as exc:
                raise ParseError(f"{path}:{lineno}: {exc.args[0]}",
                                 exc.token, source=exc.source) from None
            specs.append(RuleSpec(
                name=f"{stem}:{lineno}", rule=rule,
                category=RuleCategory.SPACE_TIME,
                message=f"rule from {path}:{lineno}",
                origin=(path, lineno)))
    return specs
