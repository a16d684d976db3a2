"""The built-in selection rules of Table 2, in the Fig. 4 language.

Each spec pairs a rule string with its Table 2 category and message, plus
two engine gates the paper describes in sections 3.3-3.3.1:

* ``requires_stable_size`` -- size-sensitive replacements only fire when
  the context's maximal-size metric is *stable* (Definition 3.1); the
  paper's implementation "requires size values to be tight, while
  operation counts are not restricted".
* ``space_gated`` -- space-motivated rules only fire when the context's
  observed saving potential clears the engine threshold ("we can avoid
  any space-optimizing replacement when the potential space savings seems
  negligible").

Constants are symbolic (``SMALL_SIZE``, ``CONTAINS_HEAVY``...) and bound
at engine construction from :data:`DEFAULT_CONSTANTS`, mirroring the
paper's tunable thresholds.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.rules.ast import Rule
from repro.rules.parser import parse_rule
from repro.rules.suggestions import RuleCategory

__all__ = ["RuleSpec", "DEFAULT_CONSTANTS", "BUILTIN_RULES", "builtin_rules"]

#: The directory that holds the ``repro`` package (``src/`` in a
#: checkout, ``site-packages`` when installed).
_SOURCE_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _portable_filename(filename: str) -> str:
    """``filename`` as ``repro/...`` when it lies in the ``repro``
    package, so a finding's span is the same in every checkout; other
    files keep the name their code object carries."""
    path = os.path.abspath(filename)
    if path.startswith(_SOURCE_ROOT + os.sep):
        return os.path.relpath(path, _SOURCE_ROOT).replace(os.sep, "/")
    return filename


@dataclass(frozen=True)
class RuleSpec:
    """One engine-ready rule with its reporting metadata."""

    name: str
    rule: Rule
    category: RuleCategory
    message: str
    requires_stable_size: bool = False
    space_gated: bool = False
    origin: Optional[Tuple[str, int]] = None
    """``(file, line)`` where the rule was defined, when known -- set by
    :meth:`parse` from its caller and by rule-file loading, so lint
    findings carry real spans."""

    @classmethod
    def parse(cls, name: str, text: str, category: RuleCategory,
              message: str, requires_stable_size: bool = False,
              space_gated: bool = False) -> "RuleSpec":
        """Parse ``text`` and wrap it with metadata.

        The caller's source position is recorded as the spec's origin
        (builtin rules thereby point into ``repro/rules/builtin.py``,
        relative to the package's directory).
        """
        try:
            caller = sys._getframe(1)
            origin = (_portable_filename(caller.f_code.co_filename),
                      caller.f_lineno)
        except ValueError:  # pragma: no cover - no caller frame
            origin = None
        return cls(name, parse_rule(text), category, message,
                   requires_stable_size, space_gated, origin=origin)


DEFAULT_CONSTANTS: Dict[str, float] = {
    # Time thresholds: average per-instance operation volumes.
    "CONTAINS_HEAVY": 16.0,
    "RANDOM_ACCESS_HEAVY": 16.0,
    "ITER_MANY": 4.0,
    # Size thresholds.
    "LARGE_SIZE": 32.0,
    "SMALL_SIZE": 12.0,
    "MIDDLE_OPS_LOW": 1.0,
    "RESIZE_MIN": 8.0,
    "OVERSIZE_SLACK": 4.0,
    "MANY_INSTANCES": 32.0,
}
"""Default bindings for the symbolic rule constants ("tuned per specific
environment", section 3.3.1)."""


def builtin_rules() -> List[RuleSpec]:
    """Fresh copies of the Table 2 rule set, in priority order.

    The engine reports the *first* matching rule per context as the
    primary suggestion (later matches become secondary), so ordering
    encodes priority: structural fixes (never used, pure temporary,
    always empty) come before implementation swaps, which come before
    capacity tuning.
    """
    return [
        RuleSpec.parse(
            "redundant-collection",
            "Collection : allOps == 0 & instances > 0 -> avoid",
            RuleCategory.SPACE_TIME,
            "redundant collection: allocated but never operated on",
            space_gated=True),
        RuleSpec.parse(
            "redundant-copying",
            "Collection : allOps == #copied & #copied > 0 "
            "-> eliminateTemporaries",
            RuleCategory.SPACE_TIME,
            "redundant copying of collections: every operation is a copy-out",
            space_gated=True),
        RuleSpec.parse(
            "empty-list",
            "ArrayList : maxSize == 0 & allOps > 0 -> LazyArrayList",
            RuleCategory.SPACE,
            "redundant collection allocation: lists at this context stay "
            "empty",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "empty-linked-list",
            "LinkedList : maxSize == 0 & allOps > 0 -> LazyArrayList",
            RuleCategory.SPACE,
            "redundant collection allocation: linked lists at this context "
            "stay empty (each still carries a header entry)",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "empty-set",
            "HashSet : maxSize == 0 & allOps > 0 -> LazySet",
            RuleCategory.SPACE,
            "redundant collection allocation: sets at this context stay "
            "empty",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "empty-map",
            "HashMap : maxSize == 0 & allOps > 0 -> LazyMap",
            RuleCategory.SPACE,
            "redundant collection allocation: maps at this context stay "
            "empty",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "small-map",
            "HashMap : maxSize < SMALL_SIZE & maxSize > 0 "
            "-> ArrayMap(maxSize)",
            RuleCategory.SPACE_TIME,
            "ArrayMap more efficient than a HashMap: small maps avoid "
            "per-entry objects and table slack; operations on a small "
            "array are faster than hashing",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "small-set",
            "HashSet : maxSize < SMALL_SIZE & maxSize > 0 "
            "-> ArraySet(maxSize)",
            RuleCategory.SPACE_TIME,
            "ArraySet more efficient than an HashSet: operations on a "
            "small array might be faster than on an HashSet",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "contains-heavy-list",
            "ArrayList : #contains > CONTAINS_HEAVY & maxSize > LARGE_SIZE "
            "& #get(int) == 0 & #add(int) == 0 & #set(int) == 0 "
            "-> LinkedHashSet",
            RuleCategory.TIME,
            "inefficient use of an ArrayList: large volume of contains "
            "operations on a large sized list"),
        RuleSpec.parse(
            "random-access-linked-list",
            "LinkedList : #get(int) > RANDOM_ACCESS_HEAVY -> ArrayList",
            RuleCategory.TIME,
            "inefficient use of a LinkedList: large volume of random "
            "accesses using get(i)"),
        RuleSpec.parse(
            "unjustified-linked-list",
            "LinkedList : (#add(int, Object) + #addAll(int, Collection) "
            "+ #remove(int) + #removeFirst) < MIDDLE_OPS_LOW -> ArrayList",
            RuleCategory.SPACE,
            "LinkedList overhead not justified when adding/removing "
            "elements from the middle/head of the list is hardly performed",
            space_gated=True),
        RuleSpec.parse(
            "singleton-list",
            "ArrayList : maxSize == 1 & #set(int) == 0 & #remove == 0 "
            "& #remove(int) == 0 & #removeFirst == 0 & #add(int) == 0 "
            "& #clear == 0 -> SingletonList",
            RuleCategory.SPACE,
            "lists at this context hold exactly one element and are never "
            "modified after construction",
            requires_stable_size=True, space_gated=True),
        RuleSpec.parse(
            "redundant-iterator",
            "Collection : #iterator > ITER_MANY & #iterEmpty == #iterator "
            "-> emptyIterator",
            RuleCategory.SPACE,
            "redundant iterator: iterators are only ever created over the "
            "empty collection",
            space_gated=True),
        RuleSpec.parse(
            # Not potential-gated: grossly oversized short-lived
            # collections (PMD's mistake) never survive to a GC cycle, so
            # they show no *live* potential -- their cost is allocation
            # churn, which the instance count proxies.
            "oversized-capacity",
            "Collection : initialCapacity > OVERSIZE_SLACK + 2 * maxSize "
            "& initialCapacity > RESIZE_MIN & instances >= MANY_INSTANCES "
            "-> setCapacity(maxSize)",
            RuleCategory.SPACE,
            "initial capacity far exceeds observed sizes",
            requires_stable_size=True),
        RuleSpec.parse(
            "incremental-resizing",
            "Collection : maxSize > initialCapacity & maxSize >= RESIZE_MIN "
            "-> setCapacity(maxSize)",
            RuleCategory.SPACE_TIME,
            "incremental resizing: collections grow past their initial "
            "capacity",
            requires_stable_size=True, space_gated=True),
    ]


BUILTIN_RULES: List[RuleSpec] = builtin_rules()
"""The shared default rule set (treat as immutable)."""
