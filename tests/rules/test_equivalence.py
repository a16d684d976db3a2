"""The interval evaluator's point verdicts equal the reference walker.

``RuleEngine.evaluate_context`` binds a profile's statistics as point
intervals and decides every rule through the same evaluator the static
analyses use.  This property holds it to the concrete float walk kept
in :mod:`repro.verify.oracle`: on random profiles (fractional averages,
heap cycles) and random rules over the whole vocabulary -- data
identifiers, ``#op``, ``@op``, bound and unbound constants, ``+ - * /``
and ``& | !`` -- both fire the same primary and secondary rules, or
both raise the same :class:`EvaluationError`.  On the same point
environment, the static ``analyze_condition`` verdict agrees with the
walker wherever the walker returns.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collections.base import CollectionKind
from repro.profiler.counters import Op
from repro.rules.builtin import RuleSpec
from repro.rules.engine import RuleEngine
from repro.rules.evaluator import (EvaluationError, Tri, analyze_condition,
                                   point_environment)
from repro.rules.parser import DATA_NAMES
from repro.rules.suggestions import RuleCategory
from repro.verify.oracle import (RuleEnvironment, evaluate_condition,
                                 reference_matches)

from tests.rules.test_evaluator import make_profile

_OPS = (Op.ADD, Op.CONTAINS, Op.GET_INDEX, Op.REMOVE_OBJECT, Op.COPIED)
_KINDS = (("ArrayList", CollectionKind.LIST), ("HashSet", CollectionKind.SET),
          ("HashMap", CollectionKind.MAP))
_SRC_TYPES = ("Collection", "List", "ArrayList", "Set", "HashMap")
_COMPARATORS = ("<", "<=", ">", ">=", "==", "!=")


@st.composite
def _profiles(draw):
    instances = draw(st.integers(1, 5))
    counts = st.lists(st.integers(0, 9), min_size=instances,
                      max_size=instances)
    ops = [(op, draw(counts))
           for op in draw(st.lists(st.sampled_from(_OPS), unique=True))]
    sizes = draw(st.lists(st.integers(0, 40), min_size=instances,
                          max_size=instances))
    capacities = draw(st.one_of(
        st.just([]), st.lists(st.integers(1, 64), min_size=instances,
                              max_size=instances)))
    cycles = draw(st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 400),
                  st.integers(0, 400)).map(
            lambda t: (t[0] + t[1] + t[2], t[0] + t[1], t[0])),
        max_size=3))
    src, kind = draw(st.sampled_from(_KINDS))
    return make_profile(ops=ops, sizes=sizes, capacities=capacities,
                        heap_cycles=cycles, src=src, kind=kind)


_atom = st.one_of(
    st.sampled_from(sorted(DATA_NAMES) + ["#allOps"]),
    st.sampled_from([op.dsl_name for op in _OPS]),
    st.sampled_from(["@" + op.dsl_name[1:] for op in _OPS]),
    st.sampled_from(["LOW", "HIGH", "UNBOUND"]),
    st.integers(0, 20).map(str),
    st.integers(0, 999).map(lambda c: f"{c / 100:.2f}"))
_expr = st.recursive(
    _atom,
    lambda inner: st.builds("({} {} {})".format, inner,
                            st.sampled_from("+-*/"), inner),
    max_leaves=3)
_comparison = st.builds("{} {} {}".format, _expr,
                        st.sampled_from(_COMPARATORS), _expr)
_condition = st.recursive(
    _comparison,
    lambda inner: st.one_of(
        st.builds("({}) & ({})".format, inner, inner),
        st.builds("({}) | ({})".format, inner, inner),
        inner.map("!({})".format)),
    max_leaves=4)
_rules = st.lists(st.tuples(st.sampled_from(_SRC_TYPES), _condition,
                            st.booleans(), st.booleans()),
                  min_size=1, max_size=4)
_constants = st.fixed_dictionaries({
    "LOW": st.sampled_from([0.0, 1 / 3, 2.5]),
    "HIGH": st.integers(0, 40).map(float)})


def _outcome(run):
    try:
        return "fires", run()
    except EvaluationError as error:
        return "raises", str(error)


def _fired(suggestion):
    if suggestion is None:
        return []
    return [s.message for s in [suggestion] + suggestion.secondary]


@settings(max_examples=400, deadline=None)
@given(profile=_profiles(), rules=_rules, constants=_constants,
       min_potential=st.sampled_from([0, 64, 512]))
# Point inputs inside the engine's 1e-9 tolerance: the <= / >= epsilon
# and the isclose() relative tolerance on ==.
@example(profile=make_profile(sizes=[1]),
         rules=[("Collection", "A <= 10", False, False)],
         constants={"A": 10 + 5e-10}, min_potential=0)
@example(profile=make_profile(sizes=[1]),
         rules=[("Collection", "A == 1000000", False, False)],
         constants={"A": 999999.9995}, min_potential=0)
@example(profile=make_profile(sizes=[1]),
         rules=[("Collection", "A >= 10", False, False)],
         constants={"A": 10 - 5e-10}, min_potential=0)
def test_point_verdicts_match_reference_walker(profile, rules, constants,
                                               min_potential):
    specs = [RuleSpec.parse(f"r{index}", f"{src} : {condition} -> avoid",
                            RuleCategory.SPACE, f"r{index}",
                            requires_stable_size=stable, space_gated=gated)
             for index, (src, condition, stable, gated) in enumerate(rules)]
    engine = RuleEngine(rules=specs, constants=constants,
                        min_potential_bytes=min_potential, validate=False)

    expected = _outcome(lambda: reference_matches(engine, profile))
    actual = _outcome(lambda: _fired(engine.evaluate_context(profile)))
    assert actual == expected

    env = point_environment(profile)
    walker_env = RuleEnvironment(profile, engine.constants)
    for spec in specs:
        try:
            concrete = evaluate_condition(spec.rule.condition, walker_env)
        except EvaluationError:
            continue
        verdict = analyze_condition(spec.rule.condition, engine.constants,
                                    env).verdict
        assert verdict is (Tri.TRUE if concrete else Tri.FALSE), spec.name
