"""The rule engine: evaluate selection rules over profiled contexts.

For every profiled allocation context the engine walks the rule list in
priority order, applying three gates before a rule may fire:

1. **Type match** -- the rule's ``srcType`` must cover the context's
   allocated type (exact name, ADT-kind name ``List``/``Set``/``Map``, or
   the universal ``Collection``).
2. **Stability** (Definition 3.1) -- size-sensitive rules require the
   context's maximal-size metric to be tight.
3. **Potential** -- space-motivated rules require the context's observed
   saving potential (peak-cycle ``live - used``) to clear a threshold.

The first matching rule becomes the context's primary suggestion; further
matches are kept as secondary suggestions.  Output is ranked by saving
potential, matching the tool behaviour of section 2.1.
"""

from __future__ import annotations

import math
from typing import (Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Tuple)

from repro.collections.base import CollectionKind
from repro.profiler.report import ContextProfile, ProfileReport
from repro.profiler.stability import StabilityPolicy
from repro.rules.ast import (Action, ActionKind, CAPACITY_MAX_SIZE,
                             Condition)
from repro.rules.builtin import DEFAULT_CONSTANTS, RuleSpec, builtin_rules
from repro.rules.evaluator import (Interval, Tri, analyze_condition,
                                   decide_condition, point_environment,
                                   tri_and)
from repro.rules.suggestions import RuleCategory, Suggestion

__all__ = ["RuleEngine"]


def _tri(flag: bool) -> Tri:
    return Tri.TRUE if flag else Tri.FALSE


_KIND_NAMES = {
    "List": CollectionKind.LIST,
    "Set": CollectionKind.SET,
    "Map": CollectionKind.MAP,
}


class RuleEngine:
    """Evaluates a rule set over a run's profiling report."""

    def __init__(self,
                 rules: Optional[Iterable[RuleSpec]] = None,
                 constants: Optional[Mapping[str, float]] = None,
                 stability: Optional[StabilityPolicy] = None,
                 min_potential_bytes: int = 512,
                 validate: bool = True) -> None:
        self.rules: List[RuleSpec] = list(rules) if rules is not None \
            else builtin_rules()
        self.constants: Dict[str, float] = dict(DEFAULT_CONSTANTS)
        if constants:
            self.constants.update(constants)
        self.stability = stability or StabilityPolicy()
        self.min_potential_bytes = min_potential_bytes
        if validate:
            # Eager Layer 1 validation: a typo'd constant or a bogus
            # replacement target is a named error *here*, not a raw
            # KeyError when the rule first fires (or is applied).  The
            # import is deferred to keep repro.rules importable without
            # triggering the lint package (and vice versa).
            from repro.lint.rule_checker import validate_rules

            validate_rules(self.rules, self.constants)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, report: ProfileReport) -> List[Suggestion]:
        """All primary suggestions, ranked by saving potential."""
        suggestions: List[Suggestion] = []
        for profile in report.profiles:
            suggestion = self.evaluate_context(profile)
            if suggestion is not None:
                suggestions.append(suggestion)
        suggestions.sort(key=lambda s: s.potential_bytes, reverse=True)
        return suggestions

    def evaluate_context(self, profile: ContextProfile,
                         ) -> Optional[Suggestion]:
        """The primary suggestion for one context (secondaries attached).

        The context's statistics are a point environment, so every rule
        that clears its gates gets a TRUE or FALSE verdict (or raises
        :class:`~repro.rules.evaluator.EvaluationError`).
        """
        env = point_environment(profile)
        verdicts = self._verdicts(
            profile,
            lambda condition: decide_condition(condition, env,
                                               self.constants),
            stable=_tri(self.stability.context_is_stable(profile.info)),
            space=_tri(self._clears_potential(profile)))
        matches = [self._make_suggestion(spec, profile)
                   for spec, verdict in verdicts if verdict is Tri.TRUE]
        if not matches:
            return None
        primary = matches[0]
        primary.secondary = matches[1:]
        return primary

    def evaluate_intervals(self, profile: ContextProfile,
                           env: Mapping[str, Interval],
                           size_stable: bool,
                           ) -> Tuple[Dict[str, Tri], Optional[tuple]]:
        """Static rule evaluation over inferred statistic *intervals*.

        The Layer 2.5 interprocedural linter
        (:mod:`repro.lint.interproc`) infers an interval per statistic
        instead of a number; this runs the same rule loop as
        :meth:`evaluate_context` with
        :func:`~repro.rules.evaluator.analyze_condition` verdicts.

        A condition that is TRUE but size-gated
        (``requires_stable_size``) while the static size is *not*
        provably stable demotes to UNKNOWN: the dynamic engine might
        reject the context at the stability gate.  The space
        (potential) gate is **not** modelled -- heap potential is a
        runtime quantity -- so a returned decision means "the dynamic
        engine decides this rule whenever its space gate clears".

        Returns ``(verdicts, decision)``: the verdict of every
        type-matching rule by name, in priority order, plus the first
        provably-firing rule as ``(rule_name, Suggestion)`` when every
        higher-priority matching rule is provably FALSE (the only case
        in which the dynamic engine is guaranteed to reach and pick
        it), else ``None``.
        """
        verdicts: Dict[str, Tri] = {}
        decision = None
        blocked = False      # an earlier rule *might* fire dynamically
        for spec, verdict in self._verdicts(
                profile,
                lambda condition: analyze_condition(
                    condition, self.constants, env).verdict,
                stable=Tri.TRUE if size_stable else Tri.UNKNOWN,
                space=Tri.TRUE):
            verdicts[spec.name] = verdict
            if not blocked and verdict is Tri.TRUE:
                decision = (spec.name,
                            self._make_suggestion(spec, profile))
            if verdict is not Tri.FALSE:
                blocked = True
        return verdicts, decision

    def _verdicts(self, profile: ContextProfile,
                  verdict_of: Callable[[Condition], Tri],
                  stable: Tri, space: Tri,
                  ) -> Iterator[Tuple[RuleSpec, Tri]]:
        """The one rule loop: every type-matching rule in priority order
        with its verdict -- the stability and space gates (``stable``,
        ``space``) conjoined with ``verdict_of`` its condition.  A rule
        whose gate is FALSE is FALSE without its condition being
        evaluated."""
        for spec in self.rules:
            if not self._type_matches(spec.rule.src_type, profile):
                continue
            gate = Tri.TRUE
            if spec.requires_stable_size:
                gate = stable
            if spec.space_gated:
                gate = tri_and(gate, space)
            if gate is not Tri.FALSE:
                gate = tri_and(gate, verdict_of(spec.rule.condition))
            yield spec, gate

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    @staticmethod
    def _type_matches(rule_type: str, profile: ContextProfile) -> bool:
        if rule_type == "Collection":
            return True
        kind = _KIND_NAMES.get(rule_type)
        if kind is not None:
            return profile.kind is kind
        return profile.src_type == rule_type

    def _clears_potential(self, profile: ContextProfile) -> bool:
        return profile.max_potential >= self.min_potential_bytes

    # ------------------------------------------------------------------
    # Suggestion construction
    # ------------------------------------------------------------------
    def _make_suggestion(self, spec: RuleSpec,
                         profile: ContextProfile) -> Suggestion:
        capacity = self._resolve_capacity(spec.rule.action, profile)
        if (capacity is None
                and spec.rule.action.kind is ActionKind.REPLACE
                and profile.info.max_size_stats.count > 0):
            # A replacement without an explicit capacity is still sized
            # from the observed profile: the program's own requested
            # capacity was aimed at the *old* implementation (which may
            # have ignored it entirely, as LinkedList does) and honouring
            # it blindly can regress the footprint.  Stable contexts get
            # the conservative typical size; unstable ones the observed
            # maximum (never triggers regrowth, bounded by real need).
            info = profile.info
            if self.stability.context_is_stable(info):
                capacity = max(1, math.ceil(info.avg_max_size
                                            - info.max_size_stddev))
            else:
                capacity = max(1, math.ceil(info.max_size_stats.max))
        return Suggestion(profile=profile, rule=spec.rule,
                          action=spec.rule.action, category=spec.category,
                          message=spec.message, resolved_capacity=capacity)

    @staticmethod
    def _resolve_capacity(action: Action,
                          profile: ContextProfile) -> Optional[int]:
        if action.capacity is None:
            return None
        if action.capacity == CAPACITY_MAX_SIZE:
            # Conservative resolution: one standard deviation below the
            # context's average maximal size.  For tight contexts (the
            # only ones the stability gate lets through with sd ~ 0)
            # this is the average itself; for mixed-but-tolerated
            # contexts it sizes for the *smaller* instances -- larger
            # ones regrow cheaply, whereas an average-sized capacity
            # would permanently overshoot every small instance and can
            # regress the footprint.
            info = profile.info
            return max(1, math.ceil(info.avg_max_size
                                    - info.max_size_stddev))
        return int(action.capacity)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def render(suggestions: List[Suggestion],
               limit: Optional[int] = None) -> str:
        """The ranked suggestion list in the paper's report format."""
        shown = suggestions if limit is None else suggestions[:limit]
        if not shown:
            return "No collection adaptations suggested."
        lines = []
        for rank, suggestion in enumerate(shown, start=1):
            lines.append(suggestion.render(rank))
        return "\n".join(lines)
