"""Rule-condition semantics: one evaluator over statistic intervals.

The rule language's vocabulary names the Table 1 / Table 3 statistics
of an allocation context:

========================  ====================================================
Rule identifier           Bound value
========================  ====================================================
``#op``                   average per-instance count of ``op``
``@op``                   standard deviation of ``op``'s count
``#allOps`` / ``allOps``  average total operations per instance
``size``                  average final size of instances
``maxSize``               average maximal size (``avgMaxSize`` alias)
``maxMaxSize``            largest maximal size any instance reached
``initialCapacity``       average explicitly-requested capacity (0 if none)
``instances``             instances allocated at the context
``deadInstances``         instances already aggregated
``swaps``                 backing-implementation swaps observed
``totLive/maxLive``       collection live bytes, summed/peak over GC cycles
``totUsed/maxUsed``       used bytes likewise
``totCore/maxCore``       core bytes likewise
``liveCount``             summed live collection count over cycles
``maxLiveCount``          peak live collection count in one cycle
``potential``             ``totLive - totUsed`` (the paper's saving measure)
``maxPotential``          ``maxLive - maxUsed``
========================  ====================================================

Every identifier is bound to an :class:`Interval` and conditions are
evaluated in three-valued logic (:class:`Tri`), over one of two kinds
of environment:

* a **point environment** (:func:`point_environment`) holds the values
  observed at one profiled context; :func:`decide_condition` walks it
  left to right with short-circuit ``&`` / ``|``, so the verdict is
  TRUE or FALSE, and a divisor within epsilon of zero or an unbound
  constant raises :class:`EvaluationError` where it is reached;
* in an **interval environment** unbound identifiers start at
  ``[0, +inf)`` (every metric is a count, size or byte aggregate), and
  :func:`analyze_condition` first *refines* intervals from conjunctions
  (``maxSize == 0 & maxSize > 10`` empties ``maxSize``), so FALSE means
  **unsatisfiable** and TRUE **tautological**.

Comparisons carry the engine's float tolerance: ``==`` is
``math.isclose`` with an absolute epsilon (so ``#remove == 0`` holds on
averages), ``<=`` / ``>=`` allow the same epsilon, ``<`` / ``>`` are
exact, and refinement bounds widen to match -- a static verdict never
contradicts the decision taken on a point inside its ranges.

The domain also knows the schema's facts (Table 1 / Table 3):
``avgMaxSize`` aliases ``maxSize``, ``maxSize <= maxMaxSize``,
``deadInstances <= instances``, the sanitizer's ``core <= used <=
live``, and -- every statistic being an integer, or an average or
deviation of integer counts over its instances -- none lies strictly
between zero and the tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import FrozenInstanceError, dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.profiler.counters import OPS
from repro.profiler.report import ContextProfile
from repro.rules.ast import (AndCond, BinaryOp, Comparison, Condition,
                             ConstRef, DataRef, Expr, NotCond, Number,
                             OpCount, OpVariance, OrCond)

__all__ = ["EvaluationError", "Tri", "tri_and", "Interval", "TOP",
           "NON_NEGATIVE", "EMPTY", "point", "canonical_ref",
           "point_environment", "decide_condition", "analyze_condition",
           "ConditionAnalysis"]

_INF = math.inf
_EPSILON = 1e-9


class EvaluationError(ValueError):
    """Raised when a rule references an unbound constant or bad data."""


class Tri(enum.Enum):
    """Three-valued truth: holds always, never, or sometimes."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"


def tri_and(a: Tri, b: Tri) -> Tri:
    if a is Tri.FALSE or b is Tri.FALSE:
        return Tri.FALSE
    if a is Tri.TRUE and b is Tri.TRUE:
        return Tri.TRUE
    return Tri.UNKNOWN


def _tri_or(a: Tri, b: Tri) -> Tri:
    if a is Tri.TRUE or b is Tri.TRUE:
        return Tri.TRUE
    if a is Tri.FALSE and b is Tri.FALSE:
        return Tri.FALSE
    return Tri.UNKNOWN


_TRI_NOT = {Tri.TRUE: Tri.FALSE, Tri.FALSE: Tri.TRUE,
            Tri.UNKNOWN: Tri.UNKNOWN}


class Interval:
    """A closed-ended real interval ``[lo, hi]`` (bounds may be infinite).

    ``lo > hi`` encodes the empty interval.  Immutable and hashable with
    the value semantics of a frozen dataclass (assignment raises
    :class:`~dataclasses.FrozenInstanceError`, ``==`` compares the
    bounds of two intervals, the hash is ``hash((lo, hi))``), but a
    slotted class: the interval analysis builds tens of thousands per
    run, and a frozen dataclass pays two ``object.__setattr__`` calls
    and an instance dict for each.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        _set_lo(self, lo)
        _set_hi(self, hi)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.lo, self.hi) == (other.lo, other.hi)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(lo={self.lo!r}, hi={self.hi!r})"

    def __reduce__(self):
        return type(self), (self.lo, self.hi)

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi and not math.isinf(self.lo)

    def intersect(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def hull(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (the join of the domain)."""
        if self.lo > self.hi:
            return other
        if other.lo > other.hi:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def clamp_lower(self, floor: float = 0.0) -> "Interval":
        """Clamp both bounds to at least ``floor`` (sizes and counts
        cannot go negative, whatever the raw arithmetic said)."""
        if self.is_empty:
            return self
        return Interval(max(self.lo, floor), max(self.hi, floor))

    def widen_hi(self) -> "Interval":
        """Drop the upper bound: the widening step of the loop/escape
        analysis.  Only ever loses precision, never soundness."""
        if self.is_empty:
            return self
        return Interval(self.lo, _INF)

    def contains(self, value: float, tolerance: float = 1e-9) -> bool:
        """Whether a concrete value falls inside the interval."""
        if self.is_empty:
            return False
        return self.lo - tolerance <= value <= self.hi + tolerance

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other: "Interval") -> "Interval":
        if self.lo > self.hi or other.lo > other.hi:
            return EMPTY
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY
        products = [_safe_mul(a, b)
                    for a in (self.lo, self.hi)
                    for b in (other.lo, other.hi)]
        return Interval(min(products), max(products))

    def divided_by(self, other: "Interval") -> "Interval":
        """Interval division; a divisor straddling zero yields TOP."""
        if self.is_empty or other.is_empty:
            return EMPTY
        if other.lo <= 0.0 <= other.hi:
            return TOP
        quotients = [a / b
                     for a in (self.lo, self.hi)
                     for b in (other.lo, other.hi)]
        return Interval(min(quotients), max(quotients))

    def render(self) -> str:
        if self.is_empty:
            return "(empty)"
        lo = "-inf" if self.lo == -_INF else f"{self.lo:g}"
        hi = "+inf" if self.hi == _INF else f"{self.hi:g}"
        return f"[{lo}, {hi}]"


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _safe_mul(a: float, b: float) -> float:
    # IEEE 0 * inf is NaN; in interval arithmetic the limit is 0.
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


TOP = Interval(-_INF, _INF)
NON_NEGATIVE = Interval(0.0, _INF)
EMPTY = Interval(1.0, 0.0)
_ZERO = Interval(0.0, 0.0)


def point(value: float) -> Interval:
    """The degenerate interval ``[value, value]``."""
    return Interval(float(value), float(value))


_ALIASES = {"avgMaxSize": "maxSize"}
"""Identifiers that denote the same statistic."""

_ORDER_LE: Tuple[Tuple[str, str], ...] = (
    # Per-instance size statistics: an average never exceeds the maximum.
    ("size", "maxSize"),
    ("maxSize", "maxMaxSize"),
    ("size", "maxMaxSize"),
    # Aggregation only ever moves instances from allocated to dead.
    ("deadInstances", "instances"),
    # Table 3 stats ordering (enforced by the heap sanitizer):
    # core <= used <= live, per cycle and summed.
    ("totCore", "totUsed"), ("totUsed", "totLive"), ("totCore", "totLive"),
    ("maxCore", "maxUsed"), ("maxUsed", "maxLive"), ("maxCore", "maxLive"),
    # Potential is live minus used, so it is bounded by live.
    ("potential", "totLive"), ("maxPotential", "maxLive"),
)
"""Known ``x <= y`` facts between bare identifiers (canonical names)."""


def canonical_ref(expr: Expr) -> Optional[str]:
    """The canonical environment key for a bare identifier, else None."""
    if isinstance(expr, DataRef):
        return _ALIASES.get(expr.name, expr.name)
    if isinstance(expr, OpCount):
        return expr.op.dsl_name
    if isinstance(expr, OpVariance):
        return "@" + expr.op.dsl_name[1:]
    return None


Env = Dict[str, Interval]


_OP_KEYS = tuple((op, op.dsl_name, "@" + op.dsl_name[1:]) for op in OPS)
"""Each operation with its ``#op`` and ``@op`` environment keys."""


def point_environment(profile: ContextProfile) -> Env:
    """The complete point environment of one profiled context: every
    identifier of the language (by :func:`canonical_ref` name) bound to
    the value observed there."""
    info = profile.info
    heap = profile.heap
    values = {
        "size": (info.final_size_stats.mean
                 if info.final_size_stats.count else 0.0),
        "maxSize": info.avg_max_size,
        "maxMaxSize": info.max_max_size,
        "initialCapacity": info.avg_initial_capacity,
        "instances": info.instances_allocated,
        "deadInstances": info.instances_dead,
        "allOps": info.all_ops_mean,
        "swaps": info.swap_count,
        "totLive": heap.live.total if heap else 0.0,
        "maxLive": heap.live.max if heap else 0.0,
        "totUsed": heap.used.total if heap else 0.0,
        "maxUsed": heap.used.max if heap else 0.0,
        "totCore": heap.core.total if heap else 0.0,
        "maxCore": heap.core.max if heap else 0.0,
        "liveCount": heap.object_count.total if heap else 0.0,
        "maxLiveCount": heap.object_count.max if heap else 0.0,
        "potential": profile.total_potential,
        "maxPotential": profile.max_potential,
    }
    for op, count_key, deviation_key in _OP_KEYS:
        values[count_key] = info.op_mean(op)
        values[deviation_key] = info.op_stddev(op)
    # Most operations never occur at a context: share one zero point.
    return {key: point(value) if value else _ZERO
            for key, value in values.items()}


def _eval_expr(expr: Expr, env: Mapping[str, Interval],
               constants: Mapping[str, float], strict: bool) -> Interval:
    """The interval of an expression.  An unbound constant or a divisor
    straddling zero gives TOP, an unbound identifier ``[0, +inf)``;
    under ``strict`` (point environments) these, and a divisor within
    epsilon of zero, raise :class:`EvaluationError` instead."""
    if isinstance(expr, Number):
        return Interval(expr.value, expr.value)
    if isinstance(expr, ConstRef):
        value = constants.get(expr.name)
        if value is not None:
            return point(value)
        if strict:
            raise EvaluationError(
                f"rule constant {expr.name!r} is not bound; known "
                f"constants: {sorted(constants)}")
        return TOP
    key = canonical_ref(expr)
    if key is not None:
        value = env.get(key)
        if value is not None:
            return value
        if strict:
            raise EvaluationError(f"unknown data identifier {key!r}")
        return NON_NEGATIVE
    if isinstance(expr, BinaryOp):
        left = _eval_expr(expr.left, env, constants, strict)
        right = _eval_expr(expr.right, env, constants, strict)
        if expr.operator == "+":
            return left + right
        if expr.operator == "-":
            return left - right
        if expr.operator == "*":
            return left * right
        if expr.operator == "/":
            if strict and abs(right.lo) < _EPSILON:
                raise EvaluationError("division by zero in rule expression")
            return left.divided_by(right)
    return TOP


def _holds(operator: str, left: float, right: float) -> bool:
    """``left OP right`` between two numbers, with the float tolerance
    (``!=`` is decided as the negation of ``==``)."""
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right + _EPSILON
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right - _EPSILON
    return math.isclose(left, right, abs_tol=_EPSILON)


def _compare_intervals(operator: str, left: Interval,
                       right: Interval) -> Tri:
    if left.is_empty or right.is_empty:
        # Vacuous: no admissible valuation reaches this comparison.
        return Tri.FALSE
    if operator in ("<", "<="):
        if _holds(operator, left.hi, right.lo):
            return Tri.TRUE
        if not _holds(operator, left.lo, right.hi):
            return Tri.FALSE
        return Tri.UNKNOWN
    if operator in (">", ">="):
        if _holds(operator, left.lo, right.hi):
            return Tri.TRUE
        if not _holds(operator, left.hi, right.lo):
            return Tri.FALSE
        return Tri.UNKNOWN
    if operator == "==":
        if left.is_point and right.is_point \
                and _holds("==", left.lo, right.lo):
            return Tri.TRUE
        # Distance grows faster than isclose's relative tolerance, so
        # the nearest pair of values decides a separation.
        if (left.hi < right.lo and not _holds("==", left.hi, right.lo)) \
                or (right.hi < left.lo
                    and not _holds("==", right.hi, left.lo)):
            return Tri.FALSE
        return Tri.UNKNOWN
    if operator == "!=":
        return _TRI_NOT[_compare_intervals("==", left, right)]
    return Tri.UNKNOWN


def _relational_fact(operator: str, left_key: str, right_key: str) -> Tri:
    """Decide a bare-identifier comparison from the schema's partial
    order, when intervals alone cannot."""
    if left_key == right_key:
        return {"==": Tri.TRUE, "!=": Tri.FALSE, "<": Tri.FALSE,
                "<=": Tri.TRUE, ">": Tri.FALSE, ">=": Tri.TRUE}[operator]
    le = (left_key, right_key) in _ORDER_LE
    ge = (right_key, left_key) in _ORDER_LE
    if le and operator == "<=":
        return Tri.TRUE
    if le and operator == ">":
        return Tri.FALSE
    if ge and operator == ">=":
        return Tri.TRUE
    if ge and operator == "<":
        return Tri.FALSE
    return Tri.UNKNOWN


def _compare(comparison: Comparison, env: Mapping[str, Interval],
             constants: Mapping[str, float], strict: bool) -> Tri:
    left = _eval_expr(comparison.left, env, constants, strict)
    right = _eval_expr(comparison.right, env, constants, strict)
    verdict = _compare_intervals(comparison.operator, left, right)
    if verdict is Tri.UNKNOWN:
        left_key = canonical_ref(comparison.left)
        right_key = canonical_ref(comparison.right)
        if left_key is not None and right_key is not None:
            verdict = _relational_fact(comparison.operator, left_key,
                                       right_key)
    return verdict


# ----------------------------------------------------------------------
# Conjunction refinement
# ----------------------------------------------------------------------
def _flatten_conjuncts(condition: Condition) -> list:
    if isinstance(condition, AndCond):
        return (_flatten_conjuncts(condition.left)
                + _flatten_conjuncts(condition.right))
    return [condition]


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<=",
            "==": "==", "!=": "!="}


def _slack(value: float) -> float:
    """How far ``x`` may lie from ``value`` with ``x == value`` holding:
    isclose's absolute epsilon or its relative tolerance, generously."""
    return _EPSILON * max(1.0, 2.0 * abs(value))


def _bound_from(operator: str, value: Interval) -> Interval:
    """The interval implied for ``x`` by ``x OP value`` (closed, so the
    strict comparisons are approximated by their non-strict bound)."""
    if operator in ("<", "<="):
        slack = _EPSILON if operator == "<=" else 0.0
        return Interval(-_INF, value.hi + slack)
    if operator in (">", ">="):
        slack = _EPSILON if operator == ">=" else 0.0
        return Interval(value.lo - slack, _INF)
    if operator == "==":
        return Interval(value.lo - _slack(value.lo),
                        value.hi + _slack(value.hi))
    return TOP  # != refines nothing representable


def _refine(conjuncts: list, env: Env,
            constants: Mapping[str, float]) -> Tuple[Env, bool]:
    """Narrow identifier intervals using var-vs-expression conjuncts.

    The closed approximation of strict bounds only ever keeps *more*
    valuations, so refinement-based unsatisfiability stays sound; the
    strict edge cases (``maxSize < 0``) fall out of the comparison
    evaluation that follows refinement.

    Returns the refined environment and whether refinement proved the
    conjunction unsatisfiable (some interval became empty).
    """
    env = dict(env)
    for _ in range(2):  # two passes reach a fixpoint for var-vs-const
        for conjunct in conjuncts:
            if not isinstance(conjunct, Comparison):
                continue
            for expr, operator, other in (
                    (conjunct.left, conjunct.operator, conjunct.right),
                    (conjunct.right, _FLIPPED[conjunct.operator],
                     conjunct.left)):
                key = canonical_ref(expr)
                if key is None:
                    continue
                value = _eval_expr(other, env, constants, strict=False)
                if value.is_empty:
                    return env, True
                current = env.get(key, NON_NEGATIVE)
                refined = current.intersect(_bound_from(operator, value))
                if refined.hi <= _EPSILON:
                    # Within the tolerance of zero a statistic is zero.
                    refined = refined.intersect(_ZERO)
                if refined.is_empty:
                    env[key] = refined
                    return env, True
                env[key] = refined
    return env, False


def _analyze(condition: Condition, env: Env,
             constants: Mapping[str, float], refine: bool,
             strict: bool = False) -> Tri:
    """Three-valued evaluation, left to right, short-circuiting.

    With ``refine`` the analysis narrows intervals from conjuncts first,
    which strengthens FALSE (unsatisfiability) verdicts but would make
    TRUE verdicts circular (every conjunct is "true" once assumed), so
    tautology detection runs with ``refine=False``.  ``strict`` is the
    point-environment mode of :func:`_eval_expr`.
    """
    if isinstance(condition, Comparison):
        return _compare(condition, env, constants, strict)
    if isinstance(condition, OrCond):
        left = _analyze(condition.left, env, constants, refine, strict)
        if left is Tri.TRUE:
            return Tri.TRUE
        return _tri_or(left, _analyze(condition.right, env, constants,
                                      refine, strict))
    if isinstance(condition, NotCond):
        # Refinement assumptions do not negate soundly; re-analyze the
        # operand without them.
        return _TRI_NOT[_analyze(condition.operand, env, constants,
                                 False, strict)]
    if isinstance(condition, AndCond):
        conjuncts = _flatten_conjuncts(condition)
        scoped = env
        if refine:
            scoped, contradiction = _refine(conjuncts, env, constants)
            if contradiction:
                return Tri.FALSE
        verdict = Tri.TRUE
        for conjunct in conjuncts:
            verdict = tri_and(verdict, _analyze(conjunct, scoped,
                                                 constants, refine, strict))
            if verdict is Tri.FALSE:
                return Tri.FALSE
        return verdict
    return Tri.UNKNOWN


def decide_condition(condition: Condition, env: Mapping[str, Interval],
                     constants: Mapping[str, float]) -> Tri:
    """The TRUE or FALSE verdict of one condition over a
    :func:`point_environment`; raises :class:`EvaluationError` where
    the short-circuit walk first meets a failing expression."""
    return _analyze(condition, env, constants, refine=False, strict=True)


@dataclass(frozen=True)
class ConditionAnalysis:
    """Outcome of interval analysis over one rule condition."""

    verdict: Tri
    """TRUE = tautological, FALSE = unsatisfiable, UNKNOWN = contingent."""

    @property
    def satisfiable(self) -> bool:
        return self.verdict is not Tri.FALSE

    @property
    def tautological(self) -> bool:
        return self.verdict is Tri.TRUE


def analyze_condition(condition: Condition,
                      constants: Optional[Mapping[str, float]] = None,
                      env: Optional[Mapping[str, Interval]] = None,
                      ) -> ConditionAnalysis:
    """Analyze one condition under the interval domain.

    Args:
        condition: A parsed rule condition.
        constants: Bindings for the symbolic constants (unknown names
            degrade to TOP; the rule checker reports them separately).
        env: Optional interval overrides per canonical identifier
            (defaults to the non-negative base domain).
    """
    environment: Env = dict(env or {})
    bound = dict(constants or {})
    # Unsatisfiability runs with conjunct refinement (stronger FALSE);
    # tautology runs without it (a refined TRUE would be circular).
    if _analyze(condition, environment, bound, refine=True) is Tri.FALSE:
        return ConditionAnalysis(Tri.FALSE)
    if _analyze(condition, environment, bound, refine=False) is Tri.TRUE:
        return ConditionAnalysis(Tri.TRUE)
    return ConditionAnalysis(Tri.UNKNOWN)
