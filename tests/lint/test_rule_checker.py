"""Layer 1 checker over the builtin Table 2 rule set and crafted sets."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint.findings import RuleValidationError, Severity
from repro.rules.evaluator import analyze_condition
from repro.lint.rule_checker import (check_rules, overlap_report,
                                     validate_rules)
from repro.rules.builtin import BUILTIN_RULES, DEFAULT_CONSTANTS, RuleSpec
from repro.rules.suggestions import RuleCategory

GOLDEN = os.path.join(os.path.dirname(__file__),
                      "golden_builtin_overlap.txt")


def spec(text, name="r"):
    return RuleSpec.parse(name, text, RuleCategory.SPACE, "msg")


def ids_of(findings):
    return {finding.id for finding in findings}


class TestBuiltinRuleHygiene:
    """The shipped rule set must self-lint clean of errors."""

    def test_no_errors(self):
        findings = check_rules(BUILTIN_RULES)
        errors = [f for f in findings if f.severity is Severity.ERROR]
        assert errors == []

    def test_no_unsat_or_tautology(self):
        found = ids_of(check_rules(BUILTIN_RULES))
        assert "L1-unsatisfiable" not in found
        assert "L1-tautology" not in found

    def test_findings_name_the_rule_file_relative_to_the_package(self):
        # Not the checkout's absolute path: the same commit must give the
        # same report wherever it is checked out.
        findings = check_rules(BUILTIN_RULES)
        files = {f.span.file for f in findings}
        files |= {step.file for f in findings for step in f.related}
        assert findings
        assert files == {"repro/rules/builtin.py"}
        assert {s.origin[0] for s in BUILTIN_RULES} == files

    def test_validate_rules_accepts_builtins(self):
        validate_rules(BUILTIN_RULES)  # must not raise

    @pytest.mark.parametrize(
        "rule_spec", BUILTIN_RULES, ids=[s.name for s in BUILTIN_RULES])
    def test_every_builtin_condition_satisfiable(self, rule_spec):
        analysis = analyze_condition(rule_spec.rule.condition,
                                     DEFAULT_CONSTANTS)
        assert analysis.satisfiable, rule_spec.name
        assert not analysis.tautological, rule_spec.name

    @settings(max_examples=50, deadline=None)
    @given(scale=st.integers(1, 8))
    def test_satisfiability_stable_under_threshold_scaling(self, scale):
        """Scaling every threshold preserves the constants' relative
        order, so no builtin rule may become unsatisfiable."""
        constants = {name: value * scale
                     for name, value in DEFAULT_CONSTANTS.items()}
        for rule_spec in BUILTIN_RULES:
            analysis = analyze_condition(rule_spec.rule.condition,
                                         constants)
            assert analysis.satisfiable, (rule_spec.name, scale)

    def test_golden_overlap_report(self):
        """Pinned pairwise overlap/shadowing structure of the builtin
        set.  Regenerate deliberately when the rules change:

            PYTHONPATH=src python -c "
            from repro.lint.rule_checker import overlap_report
            from repro.rules.builtin import BUILTIN_RULES
            print(overlap_report(BUILTIN_RULES), end='')" \\
                > tests/lint/golden_builtin_overlap.txt
        """
        with open(GOLDEN, "r", encoding="utf-8") as handle:
            expected = handle.read()
        assert overlap_report(BUILTIN_RULES) == expected


class TestReferenceChecks:
    def test_unknown_constant(self):
        findings = check_rules([spec("HashMap : maxSize < NOPE -> ArrayMap")])
        assert "L1-unknown-constant" in ids_of(findings)

    def test_unknown_data_identifier(self):
        # The parser resolves unknown lowercase identifiers to ConstRef,
        # so an off-schema DataRef can only come from an AST-built rule.
        import dataclasses

        from repro.rules.ast import Comparison, DataRef, Number

        base = spec("HashMap : maxSize > 1 -> ArrayMap")
        bad_rule = dataclasses.replace(
            base.rule,
            condition=Comparison(">", DataRef("frobCount"), Number(1.0)))
        findings = check_rules([dataclasses.replace(base, rule=bad_rule)])
        assert "L1-unknown-data" in ids_of(findings)

    def test_unknown_op_is_reported_not_raised(self):
        # An AST-built rule can carry an op outside the Op vocabulary;
        # the checker reports it and leaves the rule out of the
        # condition and overlap analyses, which cannot name the op.
        import dataclasses

        from repro.rules.ast import OpCount

        # allOps == #copied & #copied > 0, with both ops replaced.
        base = next(s for s in BUILTIN_RULES if s.name == "redundant-copying")
        cond, bogus = base.rule.condition, OpCount("#bogusOp")
        cond = dataclasses.replace(
            cond, left=dataclasses.replace(cond.left, right=bogus),
            right=dataclasses.replace(cond.right, left=bogus))
        bad = dataclasses.replace(base, rule=dataclasses.replace(
            base.rule, condition=cond))
        findings = check_rules([bad])
        assert [f.id for f in findings] == ["L1-unknown-op"] * 2
        others = [s for s in BUILTIN_RULES if s is not base]
        assert ([f for f in check_rules([bad] + others)
                 if f.rule_name == bad.name]
                == findings)
        with pytest.raises(RuleValidationError):
            validate_rules([bad])

    def test_validate_raises_on_fatal_only(self):
        with pytest.raises(RuleValidationError):
            validate_rules([spec("HashMap : maxSize < NOPE -> ArrayMap")])
        # Unsatisfiable is a lint error but not a construction blocker.
        validate_rules([spec("HashMap : maxSize < 0 -> ArrayMap")])


class TestActionChecks:
    def test_unknown_impl(self):
        findings = check_rules([spec("HashMap : maxSize > 0 -> FrobMap")])
        assert "L1-unknown-impl" in ids_of(findings)

    def test_kind_mismatch(self):
        findings = check_rules([spec("HashSet : maxSize > 0 -> ArrayMap")])
        assert "L1-kind-mismatch" in ids_of(findings)

    def test_unknown_src_type(self):
        findings = check_rules([spec("FrobSet : maxSize > 0 -> ArraySet")])
        assert "L1-unknown-src-type" in ids_of(findings)

    def test_capacity_on_capacity_ignoring_impl(self):
        findings = check_rules(
            [spec("ArrayList : maxSize > 0 -> LinkedList(32)")])
        assert "L1-capacity-ignored" in ids_of(findings)

    def test_clean_rule_has_no_findings(self):
        findings = check_rules(
            [spec("HashMap : maxSize < SMALL_SIZE & maxSize > 0 "
                  "-> ArrayMap")])
        assert findings == []


class TestOverlapChecks:
    def test_exact_duplicate_with_conflicting_targets_is_error(self):
        findings = check_rules([
            spec("HashSet : maxSize < SMALL_SIZE -> ArraySet", name="a"),
            spec("HashSet : maxSize < SMALL_SIZE -> LinkedHashSet",
                 name="b")])
        dup = [f for f in findings if f.id == "L1-shadowed-duplicate"]
        assert len(dup) == 1
        assert dup[0].severity is Severity.ERROR
        assert dup[0].rule_name == "b"

    def test_exact_duplicate_same_target_is_warning(self):
        findings = check_rules([
            spec("HashSet : maxSize < SMALL_SIZE -> ArraySet", name="a"),
            spec("HashSet : maxSize < SMALL_SIZE -> ArraySet", name="b")])
        dup = [f for f in findings if f.id == "L1-shadowed-duplicate"]
        assert dup and dup[0].severity is Severity.WARNING

    def test_overlap_with_conflicting_targets(self):
        findings = check_rules([
            spec("HashSet : maxSize < SMALL_SIZE -> ArraySet", name="a"),
            spec("HashSet : maxSize < LARGE_SIZE -> LinkedHashSet",
                 name="b")])
        assert "L1-overlap-conflict" in ids_of(findings)

    def test_disjoint_conditions_do_not_overlap(self):
        findings = check_rules([
            spec("HashSet : maxSize == 0 -> LazySet", name="a"),
            spec("HashSet : maxSize > 0 & maxSize < SMALL_SIZE "
                 "-> ArraySet", name="b")])
        assert not any(f.id.startswith("L1-overlap") for f in findings)

    def test_disjoint_types_do_not_overlap(self):
        findings = check_rules([
            spec("HashSet : maxSize < SMALL_SIZE -> ArraySet", name="a"),
            spec("HashMap : maxSize < SMALL_SIZE -> ArrayMap", name="b")])
        assert not any(f.id.startswith("L1-overlap") for f in findings)


def _ast_spec(condition):
    """A spec whose condition no parser can produce (off-schema refs)."""
    import dataclasses

    base = spec("HashMap : maxSize > 1 -> ArrayMap", name="ast-built")
    return dataclasses.replace(
        base, rule=dataclasses.replace(base.rule, condition=condition))


def _fatal_specs():
    from repro.rules.ast import Comparison, DataRef, Number, OpCount

    return {
        "L1-unknown-constant": [spec("HashMap : maxSize < NOPE -> ArrayMap")],
        "L1-unknown-impl": [spec("HashMap : maxSize > 0 -> FrobMap")],
        "L1-unknown-data": [_ast_spec(
            Comparison(">", DataRef("frobCount"), Number(1.0)))],
        "L1-unknown-op": [_ast_spec(
            Comparison(">", OpCount("#frob"), Number(1.0)))],
    }


def _validation_cases():
    from repro.lint.rule_checker import load_rules_file

    planted = os.path.join(os.path.dirname(__file__),
                           "planted_defects.rules")
    fatal = _fatal_specs()
    cases = {"builtin": list(BUILTIN_RULES),
             "planted": load_rules_file(planted), **fatal}
    # Every fatal defect at once, between overlapping and non-fatal
    # rules, so the order across specs and checks is pinned too.
    cases["mixed"] = (
        [spec("HashSet : maxSize > 0 -> ArrayMap", name="mismatch")]
        + [s for specs in fatal.values() for s in specs]
        + [spec("HashMap : maxSize < 0 -> ArrayMap", name="unsat"),
           spec("HashMap : maxSize < NOPE & size < ALSO_NOPE -> FrobMap",
                name="two-defects")]
        + list(BUILTIN_RULES[:4]))
    return cases


class TestValidationIsTheFatalSubset:
    """``validate_rules`` runs only the resolution and action checks,
    yet raises exactly the fatal findings the full checker reports."""

    @pytest.mark.parametrize("case", sorted(_validation_cases()))
    def test_raises_iff_filtered_check_rules_is_nonempty(self, case):
        from repro.lint.rule_checker import _FATAL_IDS

        specs = _validation_cases()[case]
        expected = [finding for finding in check_rules(specs)
                    if finding.id in _FATAL_IDS]
        if not expected:
            validate_rules(specs)
            return
        with pytest.raises(RuleValidationError) as excinfo:
            validate_rules(specs)
        assert excinfo.value.findings == expected

    @pytest.mark.parametrize("finding_id", sorted(_fatal_specs()))
    def test_each_fatal_id_is_reachable(self, finding_id):
        with pytest.raises(RuleValidationError) as excinfo:
            validate_rules(_fatal_specs()[finding_id])
        assert [f.id for f in excinfo.value.findings] == [finding_id]

    def test_engine_construction_skips_condition_and_overlap_checks(
            self, monkeypatch):
        from repro.lint import rule_checker
        from repro.rules.engine import RuleEngine

        def forbidden(*_args, **_kwargs):
            raise AssertionError("validation ran a non-fatal check")

        monkeypatch.setattr(rule_checker._RuleChecker, "check_overlaps",
                            forbidden)
        monkeypatch.setattr(rule_checker._RuleChecker, "check_condition",
                            forbidden)
        RuleEngine(BUILTIN_RULES, DEFAULT_CONSTANTS)
        with pytest.raises(RuleValidationError):
            RuleEngine([spec("HashMap : maxSize > 0 -> FrobMap")])
        with pytest.raises(AssertionError):
            check_rules(BUILTIN_RULES)  # the patch is live
