"""SARIF 2.1.0 emission and structural validation.

:func:`emit_sarif` renders findings as a SARIF 2.1.0 log (the OASIS
static-analysis interchange format GitHub code scanning ingests).
:func:`validate_sarif` checks a document against the 2.1.0 schema's
required core -- dependency-free, so CI can validate its own artifact;
the test suite additionally cross-checks with ``jsonschema`` when that
package is installed.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.lint.findings import Finding, Severity

__all__ = ["SARIF_VERSION", "SARIF_SCHEMA_URI", "emit_sarif",
           "validate_sarif", "SARIF_CORE_SCHEMA"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {Severity.ERROR: "error", Severity.WARNING: "warning",
           Severity.NOTE: "note"}

_RULE_DESCRIPTIONS: Dict[str, str] = {
    "L1-unknown-constant": "Rule references a constant that is not bound "
                           "in the engine's constant table.",
    "L1-unknown-data": "Rule references an identifier outside the "
                       "Table 1/Table 3 metric schema.",
    "L1-unknown-op": "Rule references an operation outside the profiler "
                     "vocabulary.",
    "L1-unknown-impl": "Replacement target is not a registered "
                       "implementation.",
    "L1-kind-mismatch": "Replacement target cannot back the ADT kind of "
                        "the rule's source type.",
    "L1-unknown-src-type": "Rule source type is not registered.",
    "L1-capacity-ignored": "Capacity argument on an implementation that "
                           "ignores initial capacities.",
    "L1-unsatisfiable": "Rule condition is unsatisfiable under the "
                        "interval domain.",
    "L1-tautology": "Rule condition holds for every profile.",
    "L1-shadowed-duplicate": "Rule duplicates an earlier rule and can "
                             "never become the primary suggestion.",
    "L1-overlap-conflict": "Rules overlap with conflicting replacement "
                           "targets.",
    "L1-overlap": "Rules may fire together on the same context.",
    "L2-contains-in-loop": "Looped contains() on a list allocation "
                           "context.",
    "L2-indexed-get-in-loop": "Looped indexed get() on a LinkedList "
                              "allocation context.",
    "L2-growth-no-capacity": "Looped growth on a collection allocated "
                             "without an initial capacity.",
    "L2-never-mutated": "Collection is never mutated after construction.",
    "L2-never-used": "Collection is allocated but never operated on.",
    "L2-temporary-iterated": "Temporary collection is returned and "
                             "immediately iterated.",
    "L2I-interval-must": "Inferred statistic intervals prove a rule "
                         "fires for every run reaching the site.",
    "L2-syntax-error": "Source file could not be parsed.",
    "L2-io-error": "Source file could not be read.",
    "L3-drift-agreement": "Static prediction confirmed by the dynamic "
                          "profile.",
    "L3-dynamic-only": "Dynamic suggestion the static pass could not "
                       "predict.",
    "L3-refuted": "Coarse static prediction the interval analysis "
                  "disproves.",
    "L3-coverage-gap": "Interval-proven rule at a context the dynamic "
                       "profile never reached.",
    "L3-static-gated": "Interval-proven rule at a profiled context that "
                       "a dynamic gate (space or stability) blocked.",
    "L3-unsubstantiated": "Static prediction whose inferred intervals "
                          "straddle the rule threshold.",
    "L3-proposal-confirmed": "Static replacement proposal matching the "
                             "dynamic decision.",
    "L3-proposal-conflict": "Static replacement proposal contradicting "
                            "the dynamic decision.",
    "L3-proposal-new": "Static replacement proposal at a context with "
                       "no dynamic decision.",
}


def emit_sarif(findings: Sequence[Finding],
               tool_version: str = "0.1.0") -> str:
    """Render findings as a SARIF 2.1.0 JSON document."""
    rule_ids = sorted({finding.id for finding in findings}
                      | set(_RULE_DESCRIPTIONS))
    rules = [{
        "id": rule_id,
        "shortDescription": {
            "text": _RULE_DESCRIPTIONS.get(rule_id, rule_id)},
    } for rule_id in rule_ids]
    rule_index = {rule_id: index for index, rule_id in enumerate(rule_ids)}

    results: List[dict] = []
    for finding in findings:
        message = finding.message
        if finding.fix_hint:
            message += f" (hint: {finding.fix_hint})"
        region = {"startLine": max(1, finding.span.line)}
        if finding.span.column is not None:
            region["startColumn"] = finding.span.column
        if finding.span.end_line is not None:
            region["endLine"] = finding.span.end_line
        result = {
            "ruleId": finding.id,
            "ruleIndex": rule_index[finding.id],
            "level": _LEVELS[finding.severity],
            "message": {"text": message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.span.file},
                    "region": region,
                },
            }],
        }
        if finding.related:
            result["relatedLocations"] = [{
                "physicalLocation": {
                    "artifactLocation": {"uri": step.file},
                    "region": {"startLine": max(1, step.line)},
                },
                "message": {"text": step.message},
            } for step in finding.related]
        properties = {}
        if finding.context:
            properties["context"] = finding.context
        if finding.predicted_rule:
            properties["predictedRule"] = finding.predicted_rule
        if finding.rule_name:
            properties["dslRule"] = finding.rule_name
        if properties:
            result["properties"] = properties
        results.append(result)

    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "chameleon-lint",
                    "informationUri":
                        "https://github.com/chameleon-repro",
                    "version": tool_version,
                    "rules": rules,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2)


def validate_sarif(document) -> List[str]:
    """Structural validation against SARIF 2.1.0's required core.

    Accepts a parsed document (dict) or a JSON string; returns the list
    of violations (empty = valid).  Checks the schema's required
    properties and enumerations for the object kinds this tool emits:
    ``sarifLog`` (version, runs), ``run`` (tool), ``toolComponent``
    (name), ``reportingDescriptor`` (id), ``result`` (message), result
    ``level`` enumeration, and location/region shapes.
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except ValueError as exc:
            return [f"not valid JSON: {exc}"]
    problems: List[str] = []

    def require(holder, key, kind, where):
        value = holder.get(key)
        if value is None:
            problems.append(f"{where}: required property {key!r} missing")
            return None
        if not isinstance(value, kind):
            problems.append(f"{where}.{key}: expected "
                            f"{kind.__name__}, got {type(value).__name__}")
            return None
        return value

    if not isinstance(document, dict):
        return ["document root must be an object"]
    version = require(document, "version", str, "sarifLog")
    if version is not None and version != SARIF_VERSION:
        problems.append(f"sarifLog.version: must be {SARIF_VERSION!r}, "
                        f"got {version!r}")
    runs = require(document, "runs", list, "sarifLog")
    for run_index, run in enumerate(runs or []):
        where = f"runs[{run_index}]"
        if not isinstance(run, dict):
            problems.append(f"{where}: must be an object")
            continue
        tool = require(run, "tool", dict, where)
        if tool is not None:
            driver = require(tool, "driver", dict, f"{where}.tool")
            if driver is not None:
                require(driver, "name", str, f"{where}.tool.driver")
                for rule_index, rule in enumerate(
                        driver.get("rules", [])):
                    require(rule, "id", str,
                            f"{where}.tool.driver.rules[{rule_index}]")
        for result_index, result in enumerate(run.get("results", [])):
            rwhere = f"{where}.results[{result_index}]"
            if not isinstance(result, dict):
                problems.append(f"{rwhere}: must be an object")
                continue
            message = require(result, "message", dict, rwhere)
            if message is not None and not (
                    "text" in message or "id" in message):
                problems.append(f"{rwhere}.message: needs 'text' or 'id'")
            level = result.get("level")
            if level is not None and level not in (
                    "none", "note", "warning", "error"):
                problems.append(f"{rwhere}.level: invalid level {level!r}")
            def check_location(location, lwhere):
                physical = location.get("physicalLocation")
                if physical is None:
                    return
                artifact = physical.get("artifactLocation")
                if artifact is not None:
                    require(artifact, "uri", str,
                            f"{lwhere}.physicalLocation.artifactLocation")
                region = physical.get("region")
                if region is not None:
                    start = region.get("startLine")
                    if start is not None and (
                            not isinstance(start, int) or start < 1):
                        problems.append(
                            f"{lwhere}.physicalLocation.region.startLine: "
                            f"must be an integer >= 1")

            for loc_index, location in enumerate(
                    result.get("locations", [])):
                check_location(location,
                               f"{rwhere}.locations[{loc_index}]")
            for loc_index, location in enumerate(
                    result.get("relatedLocations", [])):
                lwhere = f"{rwhere}.relatedLocations[{loc_index}]"
                if not isinstance(location, dict):
                    problems.append(f"{lwhere}: must be an object")
                    continue
                message = location.get("message")
                if message is not None and not (
                        isinstance(message, dict)
                        and ("text" in message or "id" in message)):
                    problems.append(
                        f"{lwhere}.message: needs 'text' or 'id'")
                check_location(location, lwhere)
    return problems


SARIF_CORE_SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "SARIF 2.1.0 required core (subset)",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "level": {"enum": ["none", "note",
                                                   "warning", "error"]},
                                "message": {"type": "object"},
                                "locations": {"type": "array"},
                                "relatedLocations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation":
                                                {"type": "object"},
                                            "message":
                                                {"type": "object"},
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}
"""The SARIF 2.1.0 schema's required-property core as a JSON Schema
document, for cross-validation with ``jsonschema`` where installed."""
