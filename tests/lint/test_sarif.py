"""SARIF 2.1.0 emitter: structure, levels, and schema validation."""

import ast
import json
import os
import re

import pytest

import repro.lint
from repro.lint.findings import Finding, Severity, Span
from repro.lint.sarif import (_RULE_DESCRIPTIONS, SARIF_CORE_SCHEMA,
                              SARIF_VERSION, emit_sarif, validate_sarif)


@pytest.fixture()
def sample_findings():
    return [
        Finding(id="L1-unsatisfiable", severity=Severity.ERROR,
                message="condition is unsatisfiable",
                span=Span(file="custom.rules", line=4),
                rule_name="custom:4"),
        Finding(id="L2-growth-no-capacity", severity=Severity.WARNING,
                message="'buffer' grows inside a loop",
                span=Span(file="src/repro/workloads/tvla.py", line=192),
                fix_hint="pass initial_capacity= at the allocation",
                context="ArrayList:repro.workloads.tvla.run:192",
                predicted_rule="incremental-resizing"),
        Finding(id="L3-drift-agreement", severity=Severity.NOTE,
                message="static prediction confirmed",
                span=Span(file="src/repro/workloads/tvla.py", line=163)),
    ]


class TestEmitter:
    def test_validates_against_2_1_0(self, sample_findings):
        assert validate_sarif(emit_sarif(sample_findings)) == []

    def test_structure(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        assert document["version"] == SARIF_VERSION == "2.1.0"
        (run,) = document["runs"]
        assert run["tool"]["driver"]["name"] == "chameleon-lint"
        assert len(run["results"]) == 3
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert set(rule_ids) >= {f.id for f in sample_findings}

    def test_levels_map_to_severities(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        levels = {result["ruleId"]: result["level"]
                  for result in document["runs"][0]["results"]}
        assert levels["L1-unsatisfiable"] == "error"
        assert levels["L2-growth-no-capacity"] == "warning"
        assert levels["L3-drift-agreement"] == "note"

    def test_result_points_back_into_the_rules_array(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        run = document["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_locations_and_hints(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        result = next(r for r in document["runs"][0]["results"]
                      if r["ruleId"] == "L2-growth-no-capacity")
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == \
            "src/repro/workloads/tvla.py"
        assert location["region"]["startLine"] == 192
        assert "hint:" in result["message"]["text"]
        assert result["properties"]["predictedRule"] == \
            "incremental-resizing"

    def test_zero_line_clamped_to_one(self):
        finding = Finding(id="L3-dynamic-only", severity=Severity.NOTE,
                          message="m", span=Span(file="<session>", line=0))
        document = json.loads(emit_sarif([finding]))
        region = (document["runs"][0]["results"][0]["locations"][0]
                  ["physicalLocation"]["region"])
        assert region["startLine"] == 1

    def test_empty_findings_still_valid(self):
        assert validate_sarif(emit_sarif([])) == []


class TestValidator:
    def test_rejects_wrong_version(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        document["version"] = "2.0.0"
        assert any("version" in problem
                   for problem in validate_sarif(document))

    def test_rejects_missing_message(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        del document["runs"][0]["results"][0]["message"]
        assert validate_sarif(document)

    def test_rejects_bad_level(self, sample_findings):
        document = json.loads(emit_sarif(sample_findings))
        document["runs"][0]["results"][0]["level"] = "fatal"
        assert validate_sarif(document)

    def test_jsonschema_cross_check(self, sample_findings):
        # Belt and braces where the real validator is installed; the CI
        # image only has pytest/hypothesis/numpy, so skip gracefully.
        jsonschema = pytest.importorskip("jsonschema")
        document = json.loads(emit_sarif(sample_findings))
        jsonschema.validate(document, SARIF_CORE_SCHEMA)
        document["runs"][0]["results"][0]["level"] = "fatal"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(document, SARIF_CORE_SCHEMA)


def _emitted_finding_ids():
    """Every finding id spelled as a string literal in the lint passes
    (each pass names its ids literally)."""
    finding_id = re.compile(r"L[0-9]I?-[a-z]+(-[a-z]+)*\Z")
    package = os.path.dirname(repro.lint.__file__)
    ids = set()
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py") or name == "sarif.py":
            continue
        with open(os.path.join(package, name), encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        ids.update(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)
                   and finding_id.match(node.value))
    return ids


class TestRuleTable:

    def test_lists_exactly_the_ids_the_passes_emit(self):
        emitted = _emitted_finding_ids()
        assert "L2-io-error" in emitted  # the scan sees every pass
        assert set(_RULE_DESCRIPTIONS) == emitted
