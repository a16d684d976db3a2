"""Layer 3: static-vs-dynamic drift report.

Diffs what the static passes say about each allocation context against
a dynamic profiling session (the cached output of a real profiled run).
The coarse usage linter's :class:`~repro.lint.usage.StaticPrediction`
records say which rule *should* fire where; the interval analysis
(:mod:`repro.lint.interproc`) classifies each one as ``must``, ``may``
or ``refuted`` and proposes static replacements.  The report sorts
every prediction, every fired rule and every proposal into one status
(see :func:`three_way_report`): agreements, coverage gaps, gated,
unsubstantiated and refuted predictions, dynamic-only rules, and
confirmed, conflicting or new proposals.

Contexts are matched on ``(innermost frame location, srcType)``: the
static side anchors a site at its assignment statement while the dynamic
side records the executing line inside the allocating frame, so exact
line equality is too strict.  But a function can hold several allocation
sites of the same srcType, so location alone is too loose -- when both
sides carry a line it is used as a proximity tiebreaker
(:func:`lines_compatible`), which separates sites tens of lines apart
while tolerating multi-line allocation statements.  The interval
analysis matches its sites to coarse predictions by the same rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.lint.findings import Finding, Severity, Span
from repro.lint.usage import StaticPrediction
from repro.rules.evaluator import Tri

__all__ = ["ThreeWayEntry", "three_way_report", "load_sessions",
           "LINE_TOLERANCE", "lines_compatible"]

LINE_TOLERANCE = 4
"""Maximum line skew for two records to name one site."""


def lines_compatible(line: int, other_line: int) -> bool:
    """Whether two records' lines can name one allocation site."""
    if line <= 0 or other_line <= 0:
        return True  # position unknown on one side: don't discriminate
    return abs(line - other_line) <= LINE_TOLERANCE


@dataclass
class _DynSite:
    """One profiled allocation context's fired rules."""

    line: int
    context: str
    fired: Set[str] = field(default_factory=set)
    covered: Set[str] = field(default_factory=set)
    """Rules consumed by an agreement (not reported dynamic-only)."""


def _builtin_name_map() -> Dict[str, str]:
    """Rule text -> rule name for the builtin set (engine rules carry no
    names, but their parsed text round-trips exactly)."""
    from repro.rules.builtin import BUILTIN_RULES

    return {spec.rule.text: spec.name for spec in BUILTIN_RULES}


def _dynamic_index(sessions: Iterable,
                   ) -> Dict[Tuple[str, str], List[_DynSite]]:
    """``(location, srcType) -> sites`` with their fired rule names.

    Primary and secondary suggestions both count as "fired": the engine's
    first-match priority decides which becomes primary, but every match
    confirms its rule's condition held at the context.
    """
    names = _builtin_name_map()
    index: Dict[Tuple[str, str], List[_DynSite]] = {}
    for session in sessions:
        for suggestion in session.suggestions:
            profile = suggestion.profile
            if profile.key is None or not profile.key.frames:
                continue
            frame = profile.key.frames[0]
            key = (frame.location, profile.src_type)
            sites = index.setdefault(key, [])
            site = next((s for s in sites if s.line == frame.line), None)
            if site is None:
                site = _DynSite(line=frame.line,
                                context=profile.render_context())
                sites.append(site)
            for match in [suggestion] + suggestion.secondary:
                site.fired.add(names.get(match.rule.text, match.rule.text))
    return index


def load_sessions(path: str) -> List:
    """Load every cached session from a session-cache spill: a
    content-addressed :class:`~repro.analysis.index.SessionStore`
    directory (e.g. ``benchmarks/runs/store``)."""
    import os

    from repro.analysis.index import SessionStore

    if not os.path.isdir(path):
        raise NotADirectoryError("not a session-store directory (see "
                                 "'experiment --session-cache')")
    return SessionStore(path).sessions()


@dataclass(frozen=True)
class ThreeWayEntry:
    """One context/rule row of the three-way drift diff."""

    status: str
    """``agreement`` | ``coverage-gap`` | ``static-only-gated`` |
    ``unsubstantiated`` | ``refuted`` | ``dynamic-only`` |
    ``proposal-confirmed`` | ``proposal-conflict`` | ``proposal-new``."""
    location: str
    src_type: str
    rule: str
    static_line: Optional[int] = None
    dynamic_context: Optional[str] = None
    verdict: Optional[str] = None
    """Interval-side verdict (``must``/``may``/``refuted``) where the
    interprocedural analysis had an opinion."""


_VERDICT_NAMES = {Tri.TRUE: "must", Tri.UNKNOWN: "may",
                  Tri.FALSE: "refuted"}


def three_way_report(predictions: Sequence[StaticPrediction],
                     sessions: Sequence,
                     classify: Callable[[StaticPrediction], Tri],
                     proposals: Sequence[Tuple[str, int, str, str, str]] = (),
                     ) -> Tuple[List[Finding], List[ThreeWayEntry]]:
    """Diff coarse predictions, interval verdicts and dynamic sessions.

    ``sessions`` is any sequence of
    :class:`~repro.core.chameleon.ProfilingSession` (cached, ``vm=None``
    sessions work).  ``classify`` is a callable mapping a
    :class:`StaticPrediction` to a
    :class:`~repro.rules.evaluator.Tri` (dependency-injected so this
    module needs no import of the interprocedural engine;
    :meth:`repro.lint.interproc.InterprocReport.classify` fits).
    ``proposals`` are ``(location, line, src_type, rule, detail)`` rows
    of the static :class:`ReplacementMap` proposal (see
    :meth:`repro.lint.interproc.InterprocReport.proposal_rows`).

    Each prediction is matched to the profiled sites of its context:

    * the rule fired there: an **agreement** (note; the interval
      verdict rides along -- a ``refuted`` agreement would expose an
      unsound transfer function, so it is always worth printing);
    * otherwise by interval verdict -- ``must`` at an unprofiled context
      is a real **coverage gap** (warning), ``must`` at a profiled
      context means a dynamic **gate** (potential or stability) blocked
      the rule (note), ``may`` is **unsubstantiated** (note: the coarse
      fact never cleared the quantitative threshold statically), and
      ``refuted`` is a coarse **false positive** the intervals disprove
      (note);
    * a rule that fired with no prediction is **dynamic-only** (note),
      typically an allocation reached through dynamic dispatch or a
      threshold-dependent rule (``small-map``) no syntactic fact
      implies;
    * every proposal row is checked against the dynamic decisions --
      ``proposal-conflict`` (warning) flags a static *must* decision
      the dynamic engine contradicts.
    """
    dynamic = _dynamic_index(sessions)
    findings: List[Finding] = []
    entries: List[ThreeWayEntry] = []

    for prediction in predictions:
        verdict_tri = classify(prediction)
        verdict = _VERDICT_NAMES[verdict_tri]
        agreed: Optional[Tuple[str, _DynSite]] = None
        profiled: Optional[Tuple[str, _DynSite]] = None
        for src_type in sorted(prediction.src_types):
            for site in dynamic.get((prediction.location, src_type), []):
                if not lines_compatible(prediction.line, site.line):
                    continue
                if prediction.predicted_rule in site.fired:
                    agreed = (src_type, site)
                    break
                if profiled is None:
                    profiled = (src_type, site)
            if agreed is not None:
                break
        if agreed is not None:
            src_type, site = agreed
            site.covered.add(prediction.predicted_rule)
            entries.append(ThreeWayEntry(
                "agreement", prediction.location, src_type,
                prediction.predicted_rule, static_line=prediction.line,
                dynamic_context=site.context, verdict=verdict))
            findings.append(Finding(
                id="L3-drift-agreement", severity=Severity.NOTE,
                message=f"static prediction confirmed "
                        f"(interval verdict: {verdict}): "
                        f"{prediction.predicted_rule!r} fired at "
                        f"{src_type}:{prediction.location}",
                span=Span(file=prediction.file, line=prediction.line),
                context=site.context,
                predicted_rule=prediction.predicted_rule))
            continue
        src_type = "/".join(sorted(prediction.src_types))
        context = profiled[1].context if profiled is not None else None
        if verdict_tri is Tri.FALSE:
            status, finding_id, severity = \
                "refuted", "L3-refuted", Severity.NOTE
            reason = ("the inferred intervals disprove the rule's "
                      "condition: the coarse prediction is a static "
                      "false positive")
        elif verdict_tri is Tri.TRUE and profiled is None:
            status, finding_id, severity = \
                "coverage-gap", "L3-coverage-gap", Severity.WARNING
            reason = ("the intervals prove the rule fires, but the "
                      "context never appeared in the profile: the "
                      "dynamic run does not cover this code path")
        elif verdict_tri is Tri.TRUE:
            status, finding_id, severity = \
                "static-only-gated", "L3-static-gated", Severity.NOTE
            reason = ("the intervals prove the rule's condition, so a "
                      "dynamic gate (saving potential or stability) "
                      "must have blocked it")
        else:
            status, finding_id, severity = \
                "unsubstantiated", "L3-unsubstantiated", Severity.NOTE
            reason = ("the inferred intervals straddle the rule's "
                      "thresholds: the coarse fact was never "
                      "quantitatively substantiated")
        entries.append(ThreeWayEntry(
            status, prediction.location, src_type,
            prediction.predicted_rule, static_line=prediction.line,
            dynamic_context=context, verdict=verdict))
        findings.append(Finding(
            id=finding_id, severity=severity,
            message=f"{status}: {prediction.predicted_rule!r} at "
                    f"{src_type}:{prediction.location} -- {reason}",
            span=Span(file=prediction.file, line=prediction.line),
            context=context, predicted_rule=prediction.predicted_rule))

    for (location, src_type), sites in sorted(dynamic.items()):
        for site in sites:
            for rule in sorted(site.fired - site.covered):
                entries.append(ThreeWayEntry(
                    "dynamic-only", location, src_type, rule,
                    dynamic_context=site.context))
                findings.append(Finding(
                    id="L3-dynamic-only", severity=Severity.NOTE,
                    message=f"dynamic-only: {rule!r} fired at "
                            f"{src_type}:{location} with no static "
                            f"prediction",
                    span=Span(file="<session>", line=0),
                    context=site.context, predicted_rule=rule))

    for location, line, src_type, rule, detail in proposals:
        match: Optional[_DynSite] = None
        for site in dynamic.get((location, src_type), []):
            if lines_compatible(line, site.line):
                match = site
                break
        if match is None:
            status, finding_id, severity = \
                "proposal-new", "L3-proposal-new", Severity.NOTE
            message = (f"static proposal (no dynamic decision to "
                       f"compare): {rule!r} -> {detail} at "
                       f"{src_type}:{location}:{line}")
        elif rule in match.fired:
            status, finding_id, severity = \
                "proposal-confirmed", "L3-proposal-confirmed", \
                Severity.NOTE
            message = (f"static proposal confirmed by the dynamic "
                       f"engine: {rule!r} -> {detail} at "
                       f"{src_type}:{location}:{line}")
        else:
            status, finding_id, severity = \
                "proposal-conflict", "L3-proposal-conflict", \
                Severity.WARNING
            message = (f"static proposal conflicts with the dynamic "
                       f"decision at {src_type}:{location}:{line}: "
                       f"proposed {rule!r} -> {detail}, dynamic fired "
                       f"{sorted(match.fired)}")
        entries.append(ThreeWayEntry(
            status, location, src_type, rule, static_line=line,
            dynamic_context=match.context if match else None,
            verdict="must"))
        findings.append(Finding(
            id=finding_id, severity=severity, message=message,
            span=Span(file="<proposal>", line=line),
            context=match.context if match else None,
            predicted_rule=rule))
    return findings, entries
