"""Interval domain: three-valued analysis of rule conditions.

The hypothesis property at the bottom pins the domain's soundness
contract against the reference concrete walker
(:mod:`repro.verify.oracle`): a FALSE verdict means *no* admissible
valuation satisfies the condition, a TRUE verdict means *every* one
does.  Valuations are non-negative integers or floats, matching the
metric schema (every identifier is a count, size or byte aggregate, or
a fractional average of one).
"""

import copy
import dataclasses
import math
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rules.evaluator import (EMPTY, Interval, NON_NEGATIVE, TOP, Tri,
                                   analyze_condition, canonical_ref)
from repro.rules.parser import parse_condition
from repro.verify.oracle import RuleEnvironment, evaluate_condition


def analyze(text, constants=None):
    return analyze_condition(parse_condition(text), constants)


class TestIntervalArithmetic:
    def test_add(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_sub_flips_bounds(self):
        assert Interval(1, 2) - Interval(3, 4) == Interval(-3, -1)

    def test_mul_zero_absorbs_infinity(self):
        assert Interval(0, 0) * TOP == Interval(0, 0)

    def test_division_straddling_zero_is_top(self):
        assert Interval(1, 2).divided_by(Interval(-1, 1)) == TOP

    def test_intersect_empty(self):
        assert Interval(0, 1).intersect(Interval(2, 3)).is_empty
        assert EMPTY.is_empty and not NON_NEGATIVE.is_empty


class TestIntervalValue:
    """An interval is an immutable value with frozen-dataclass semantics."""

    def test_equality_across_int_and_float_bounds(self):
        assert Interval(1, 2) == Interval(1.0, 2.0)
        assert Interval(0, math.inf) == NON_NEGATIVE
        assert Interval(1, 2) != Interval(1, 3)
        assert len({Interval(1, 2), Interval(1.0, 2.0)}) == 1

    def test_hash_is_the_bounds_tuple_hash(self):
        for interval in (Interval(1, 2), Interval(0.5, math.inf), TOP,
                         EMPTY):
            assert hash(interval) == hash((interval.lo, interval.hi))

    def test_repr(self):
        assert repr(Interval(1.0, math.inf)) == "Interval(lo=1.0, hi=inf)"
        assert repr(Interval(1, 2)) == "Interval(lo=1, hi=2)"

    def test_assignment_and_deletion_raise(self):
        interval = Interval(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.lo = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            interval.extra = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del interval.hi
        assert (interval.lo, interval.hi) == (1.0, 2.0)

    def test_not_equal_to_a_tuple(self):
        assert Interval(1.0, 2.0) != (1.0, 2.0)
        assert (1.0, 2.0) != Interval(1.0, 2.0)

    def test_copies_are_equal_values(self):
        interval = Interval(0.0, math.inf)
        assert copy.copy(interval) == interval
        assert copy.deepcopy(interval) == interval
        assert pickle.loads(pickle.dumps(interval)) == interval

    def test_hull_and_add_of_empty(self):
        assert EMPTY.hull(Interval(1, 2)) == Interval(1, 2)
        assert Interval(1, 2).hull(EMPTY) == Interval(1, 2)
        assert Interval(1, 2).hull(Interval(4, 5)) == Interval(1, 5)
        assert (EMPTY + Interval(1, 2)).is_empty
        assert (Interval(1, 2) + EMPTY).is_empty


class TestUnsatisfiable:
    def test_negative_bound(self):
        assert analyze("maxSize < 0").verdict is Tri.FALSE
        assert not analyze("maxSize < 0").satisfiable

    def test_contradictory_conjunction(self):
        assert analyze("maxSize == 0 & maxSize > 10").verdict is Tri.FALSE

    def test_contradiction_through_constants(self):
        verdict = analyze("maxSize < LO & maxSize > HI",
                          constants={"LO": 5, "HI": 10}).verdict
        assert verdict is Tri.FALSE

    def test_point_contradiction(self):
        assert analyze("#add == 3 & #add == 4").verdict is Tri.FALSE

    def test_relational_fact_violation(self):
        # deadInstances <= instances is a schema invariant.
        assert analyze("instances < deadInstances").verdict is Tri.FALSE

    def test_negated_tautology(self):
        assert analyze("!(maxSize >= 0)").verdict is Tri.FALSE


class TestTautology:
    def test_non_negative_base(self):
        analysis = analyze("maxSize >= 0")
        assert analysis.verdict is Tri.TRUE and analysis.tautological

    def test_relational_fact(self):
        assert analyze("size <= maxSize").verdict is Tri.TRUE

    def test_alias_equality(self):
        # avgMaxSize is an alias of maxSize in the schema.
        assert analyze("avgMaxSize == maxSize").verdict is Tri.TRUE

    def test_disjunction_with_true_arm(self):
        assert analyze("instances >= 0 | #add > 5").verdict is Tri.TRUE

    def test_negated_unsat(self):
        assert analyze("!(maxSize < 0)").verdict is Tri.TRUE


class TestContingent:
    def test_threshold_comparison(self):
        analysis = analyze("maxSize < 12")
        assert analysis.verdict is Tri.UNKNOWN
        assert analysis.satisfiable and not analysis.tautological

    def test_refined_conjunction_not_circular(self):
        # Refinement assumes its own conjuncts; trusting it for TRUE
        # would declare every satisfiable conjunction a tautology.
        assert analyze("maxSize >= 5 & maxSize >= 3").verdict \
            is Tri.UNKNOWN

    def test_unknown_constant_degrades_to_top(self):
        analysis = analyze("maxSize < NO_SUCH_CONSTANT")
        assert analysis.verdict is Tri.UNKNOWN

    def test_division_by_possibly_zero(self):
        assert analyze("#add / #remove > 0").verdict is Tri.UNKNOWN


# ----------------------------------------------------------------------
# Soundness property: interval verdicts vs the reference walker
# ----------------------------------------------------------------------
_IDENTS = ("#add", "#contains", "instances", "initialCapacity",
           "swaps", "liveCount")
# None of these participate in _ORDER_LE facts or aliases with each
# other, so independent valuations are admissible.
_KEYS = {ident: canonical_ref(parse_condition(f"{ident} >= 0").left)
         for ident in _IDENTS}
_COMPARATORS = ("<", "<=", ">", ">=", "==", "!=")
_ARITH = ("+", "-", "*")


class _Valuation(RuleEnvironment):
    """The reference walker's environment over a bare valuation."""

    def __init__(self, valuation):
        super().__init__(SimpleNamespace(info=SimpleNamespace(
            op_mean=lambda op: valuation[op.dsl_name])))
        self.valuation = valuation

    def data(self, name):
        return self.valuation[name]


_atom = st.one_of(st.sampled_from(_IDENTS),
                  st.integers(0, 8).map(str))
_expr = st.one_of(
    _atom,
    st.builds("({} {} {})".format, _atom,
              st.sampled_from(_ARITH), _atom))
_comparison = st.builds("{} {} {}".format, _expr,
                        st.sampled_from(_COMPARATORS), _expr)
_condition = st.recursive(
    _comparison,
    lambda inner: st.one_of(
        st.builds("({}) & ({})".format, inner, inner),
        st.builds("({}) | ({})".format, inner, inner),
        inner.map("!({})".format)),
    max_leaves=4)
# A nonzero statistic is never within the 1e-9 tolerance of zero (the
# domain's resolution fact), so float valuations start above it.
_valuation = st.fixed_dictionaries(
    {key: st.one_of(st.integers(0, 6),
                    st.floats(1e-9, 6, exclude_min=True))
     for key in _KEYS.values()})
_BOUNDARY = {key: 0 for key in _KEYS.values()}


@settings(max_examples=300, deadline=None)
@given(text=_condition, valuation=_valuation)
# Inside the engine's 1e-9 tolerance: refinement must not call these
# unsatisfiable.
@example(text="(#add <= 4) & (#add > 4)",
         valuation={**_BOUNDARY, "#add": 4 + 5e-10})
@example(text="(instances == 3) & (instances > 3)",
         valuation={**_BOUNDARY, "instances": 3 + 2e-9})
def test_interval_verdicts_sound(text, valuation):
    condition = parse_condition(text)
    verdict = analyze_condition(condition, constants={}).verdict
    actual = evaluate_condition(condition, _Valuation(valuation))
    if verdict is Tri.FALSE:
        assert actual is False, (
            f"{text!r} declared unsatisfiable but {valuation} satisfies it")
    elif verdict is Tri.TRUE:
        assert actual is True, (
            f"{text!r} declared tautological but {valuation} falsifies it")
