"""Applying suggestions: the offline replacement policy.

A :class:`ReplacementMap` is the programmatic form of "modify the top
allocation contexts using the tool suggestions" (section 5.2, step 3): a
mapping from allocation-context *keys* (which are stable across runs,
unlike dense per-VM ids) to implementation choices.  Installed on a fresh
:class:`~repro.runtime.vm.RuntimeEnvironment`, it redirects every matching
collection allocation -- the simulation's equivalent of the replacement
source edit, so consulting it is *not* charged to the virtual clock.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.runtime.context import ContextKey, ContextRegistry
from repro.runtime.vm import ImplementationChoice, RuntimeEnvironment
from repro.rules.suggestions import Suggestion

__all__ = ["ReplacementMap"]


class ReplacementMap:
    """Context-keyed implementation choices (offline application)."""

    #: Offline policies model source edits; capture for them is free.
    requires_runtime_capture = False

    def __init__(self) -> None:
        self._choices: Dict[Tuple[ContextKey, str], ImplementationChoice] = {}
        self._registry: Optional[ContextRegistry] = None
        self.applied_lookups = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def set_choice(self, key: ContextKey, src_type: str,
                   choice: ImplementationChoice) -> None:
        """Map allocations of ``src_type`` at ``key`` to ``choice``."""
        self._choices[(key, src_type)] = choice

    def merge_choice(self, key: ContextKey, src_type: str,
                     choice: ImplementationChoice) -> bool:
        """Fold ``choice`` into any existing entry for the context.

        A later round's capacity advice combines with an earlier round's
        replacement (and vice versa); returns True when the installed
        choice actually changed -- the iterative optimiser's convergence
        signal.
        """
        existing = self._choices.get((key, src_type))
        if existing is None:
            self._choices[(key, src_type)] = choice
            return True
        merged = ImplementationChoice(
            choice.impl_name or existing.impl_name,
            choice.initial_capacity if choice.initial_capacity is not None
            else existing.initial_capacity,
            choice.impl_kwargs or existing.impl_kwargs)
        if merged == existing:
            return False
        self._choices[(key, src_type)] = merged
        return True

    def merge_suggestions(self, suggestions: Iterable[Suggestion],
                          top: Optional[int] = None) -> int:
        """Fold a round of suggestions in; returns how many entries
        changed."""
        changed = 0
        taken = 0
        for suggestion in suggestions:
            if top is not None and taken >= top:
                break
            choice = suggestion.to_choice()
            if choice is None or suggestion.profile.key is None:
                continue
            taken += 1
            if self.merge_choice(suggestion.profile.key,
                                 suggestion.profile.src_type, choice):
                changed += 1
        return changed

    @classmethod
    def from_suggestions(cls, suggestions: Iterable[Suggestion],
                         top: Optional[int] = None) -> "ReplacementMap":
        """Build a policy from ranked suggestions.

        Args:
            suggestions: Engine output, ranked by potential.
            top: Apply only the first ``top`` auto-applicable suggestions
                (the paper applied the handful of top contexts per
                benchmark); ``None`` applies all.

        Raises:
            ValueError: ``top`` is negative.
        """
        if top is not None and top < 0:
            raise ValueError(f"top must be >= 0, not {top}")
        policy = cls()
        applied = 0
        for suggestion in suggestions:
            if top is not None and applied >= top:
                break
            choice = suggestion.to_choice()
            if choice is None or suggestion.profile.key is None:
                continue
            policy.set_choice(suggestion.profile.key,
                              suggestion.profile.src_type, choice)
            applied += 1
        return policy

    # ------------------------------------------------------------------
    # Pickling (process-pool transfer)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        """Ship only the choices: the registry binding is per-VM state
        and the lookup counter is per-run introspection, so a policy
        sent to a scheduler worker arrives unbound and fresh."""
        return {"choices": self._choices}

    def __setstate__(self, state: dict) -> None:
        self._choices = state["choices"]
        self._registry = None
        self.applied_lookups = 0

    # ------------------------------------------------------------------
    # ReplacementPolicyProtocol
    # ------------------------------------------------------------------
    def bind(self, vm: RuntimeEnvironment) -> "ReplacementMap":
        """Attach to ``vm`` so dense context ids resolve to keys."""
        self._registry = vm.contexts
        return self

    def choose(self, src_type: str, context_id: Optional[int],
               ) -> Optional[ImplementationChoice]:
        """The installed choice for this allocation, if any."""
        if context_id is None or self._registry is None:
            return None
        key = self._registry.describe(context_id)
        choice = self._choices.get((key, src_type))
        if choice is not None:
            self.applied_lookups += 1
        return choice

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._choices)

    def entries(self) -> List[Tuple[ContextKey, str, ImplementationChoice]]:
        """Every installed (context, source type, choice) entry."""
        return [(key, src, choice)
                for (key, src), choice in self._choices.items()]

    def render(self) -> str:
        """Human-readable policy dump."""
        if not self._choices:
            return "ReplacementMap: (empty)"
        lines = ["ReplacementMap:"]
        for (key, src), choice in self._choices.items():
            target = choice.impl_name or "(keep implementation)"
            capacity = (f", capacity={choice.initial_capacity}"
                        if choice.initial_capacity is not None else "")
            lines.append(f"  {src}:{key.render()} -> {target}{capacity}")
        return "\n".join(lines)
