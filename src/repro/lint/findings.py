"""The reporting spine shared by every lint layer.

A :class:`Finding` is one diagnostic: a stable rule id (``L1-*`` for the
rule-DSL checker, ``L2-*`` for the usage linter, ``L3-*`` for the drift
report), a severity, a file/line span, a message and an optional fix
hint.  The same list of findings renders as text (human diff-style), JSON
(machine diff-style) or SARIF 2.1.0 (:mod:`repro.lint.sarif`).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Severity", "Span", "Finding", "Related", "RuleValidationError",
           "emit_text", "emit_json", "worst_severity", "count_by_severity"]


class Severity(enum.Enum):
    """Diagnostic severities, ordered; SARIF levels map 1:1."""

    NOTE = "note"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank


_SEVERITY_RANK = {Severity.NOTE: 0, Severity.WARNING: 1, Severity.ERROR: 2}


@dataclass(frozen=True)
class Span:
    """A source location: file plus 1-based line/column region.

    Rule-DSL findings for in-memory rule sets use the pseudo-file
    ``<rules>``; findings for rule files and Python sources use real
    paths.  ``line == 0`` means "whole file" (position unknown).
    """

    file: str
    line: int = 0
    column: Optional[int] = None
    end_line: Optional[int] = None

    def render(self) -> str:
        parts = self.file
        if self.line:
            parts += f":{self.line}"
            if self.column is not None:
                parts += f":{self.column}"
        return parts


@dataclass(frozen=True)
class Related:
    """A related source location (one call-chain step of an
    interprocedural finding): where a value the finding depends on was
    produced, e.g. the factory allocation behind a call-site report."""

    file: str
    line: int
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.message}"


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by any lint layer."""

    id: str
    severity: Severity
    message: str
    span: Span
    fix_hint: Optional[str] = None
    rule_name: Optional[str] = None
    """Name of the DSL rule the finding is about (Layer 1 / drift)."""
    context: Optional[str] = None
    """Allocation context in the suggestion format
    (``srcType:module.func:line``) for Layer 2 / drift findings."""
    predicted_rule: Optional[str] = None
    """Builtin-rule name a Layer 2 fact statically predicts."""
    related: Tuple[Related, ...] = ()
    """Call-chain steps behind an interprocedural finding, innermost
    first (SARIF ``relatedLocations``)."""

    def render(self) -> str:
        head = f"{self.span.render()}: {self.severity.value}: " \
               f"[{self.id}] {self.message}"
        tail = []
        if self.context:
            tail.append(f"    context: {self.context}")
        if self.predicted_rule:
            tail.append(f"    predicts: {self.predicted_rule}")
        if self.fix_hint:
            tail.append(f"    hint: {self.fix_hint}")
        for step in self.related:
            tail.append(f"    via: {step.render()}")
        return "\n".join([head] + tail)

    def to_dict(self) -> dict:
        data = {
            "id": self.id,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.span.file,
            "line": self.span.line,
        }
        if self.span.column is not None:
            data["column"] = self.span.column
        if self.span.end_line is not None:
            data["endLine"] = self.span.end_line
        for key, value in (("fixHint", self.fix_hint),
                           ("ruleName", self.rule_name),
                           ("context", self.context),
                           ("predictedRule", self.predicted_rule)):
            if value is not None:
                data[key] = value
        if self.related:
            data["related"] = [{"file": step.file, "line": step.line,
                                "message": step.message}
                               for step in self.related]
        return data


class RuleValidationError(ValueError):
    """A rule set failed eager (construction-time) validation.

    Raised by :func:`repro.lint.rule_checker.validate_rules` -- and
    therefore by ``RuleEngine(...)`` -- so that a typo'd constant or a
    bogus replacement target is a clear, named error at engine
    construction rather than a ``KeyError`` when the rule first fires.
    """

    def __init__(self, findings: Sequence[Finding]) -> None:
        self.findings = list(findings)
        lines = ["invalid rule set:"]
        lines += [f"  {finding.render().splitlines()[0]}"
                  for finding in self.findings]
        super().__init__("\n".join(lines))


def count_by_severity(findings: Sequence[Finding]) -> Dict[Severity, int]:
    """How many findings exist at each severity."""
    counts = {severity: 0 for severity in Severity}
    for finding in findings:
        counts[finding.severity] += 1
    return counts


def worst_severity(findings: Sequence[Finding]) -> Optional[Severity]:
    """The highest severity present, or ``None`` for a clean run."""
    worst: Optional[Severity] = None
    for finding in findings:
        if worst is None or finding.severity.rank > worst.rank:
            worst = finding.severity
    return worst


def _waived_total(waived: Optional[Mapping[str, int]]) -> int:
    return sum(waived.values()) if waived else 0


def emit_text(findings: Sequence[Finding],
              waived: Optional[Mapping[str, int]] = None) -> str:
    """Human-readable report, most severe findings first.

    ``waived`` maps finding ids to the number of occurrences silenced by
    ``# lint: ignore[...]`` comments; the per-id counts follow the
    findings and their total shows in the summary line.
    """
    total_waived = _waived_total(waived)
    ordered = sorted(findings,
                     key=lambda f: (-f.severity.rank, f.span.file,
                                    f.span.line, f.id))
    lines = [finding.render() for finding in ordered]
    lines += [f"waived: {count} x [{finding_id}]"
              for finding_id, count in sorted((waived or {}).items())]
    if not findings:
        return "\n".join(lines + [
            f"lint: no findings ({total_waived} waived)." if total_waived
            else "lint: no findings."])
    counts = count_by_severity(findings)
    summary = ", ".join(f"{counts[severity]} {severity.value}(s)"
                        for severity in (Severity.ERROR, Severity.WARNING,
                                         Severity.NOTE)
                        if counts[severity])
    if total_waived:
        summary += f", {total_waived} waived"
    return "\n".join(lines + [f"lint: {summary}"])


def emit_json(findings: Sequence[Finding],
              waived: Optional[Mapping[str, int]] = None) -> str:
    """Machine-readable report: a stable-keyed JSON document."""
    counts = count_by_severity(findings)
    document = {
        "schema": "chameleon-lint",
        "version": 1,
        "summary": {severity.value: counts[severity]
                    for severity in Severity},
        "findings": [finding.to_dict() for finding in findings],
    }
    document["summary"]["waived"] = _waived_total(waived)
    if waived:
        document["waived"] = dict(sorted(waived.items()))
    return json.dumps(document, indent=2, sort_keys=True)
