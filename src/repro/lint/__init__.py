"""Static analysis over the Fig. 4 rule DSL and collection-using sources.

Chameleon is the paper's *dynamic* answer to collection selection; this
package is the static pass that keeps the dynamic machinery honest:

* **Layer 1** (:mod:`repro.lint.rule_checker`) checks parsed rules
  semantically -- constants bound, metrics known, replacement targets
  registered and kind-compatible, conditions satisfiable under an
  interval domain, and no rule shadowed by an earlier one.
* **Layer 2** (:mod:`repro.lint.usage`) walks Python workload/client
  sources with :mod:`ast`, finds wrapper allocation sites, derives
  static op-mix facts, and predicts which Table 2 rules should fire.
* **Layer 2.5** (:mod:`repro.lint.interproc`) is the interprocedural
  interval analysis: per-site op-frequency and size *intervals* flow
  through call summaries and loops, are evaluated three-valuedly by the
  real rule engine, and yield provable per-rule verdicts and a static
  replacement proposal.
  ``lint --paths`` always runs both source passes: they read files
  through one reader, report one finding per unreadable or unparsable
  file, and honour the same ``# lint: ignore[...]`` waivers.
* The **drift report** (:mod:`repro.lint.drift`) diffs the coarse
  predictions, their interval verdicts and the static proposal against
  a dynamic profiling session per allocation context, separating
  agreements and dynamic-only rules from coverage gaps and from gated,
  unsubstantiated and refuted predictions.

Findings share one model (:mod:`repro.lint.findings`) with text, JSON
and SARIF 2.1.0 emitters (:mod:`repro.lint.sarif`), surfaced by the
``chameleon-repro lint`` CLI subcommand.
"""

from repro.lint.drift import ThreeWayEntry, three_way_report
from repro.lint.findings import (Finding, Related, RuleValidationError,
                                 Severity, Span, emit_json, emit_text,
                                 worst_severity)
from repro.lint.interproc import (InterprocReport, SiteReport,
                                  analyze_paths, analyze_source)
from repro.lint.rule_checker import (check_rules, load_rules_file,
                                     overlap_report, validate_rules)
from repro.lint.sarif import emit_sarif, validate_sarif
from repro.lint.usage import StaticPrediction, lint_paths_detailed
from repro.rules.evaluator import Interval, Tri, analyze_condition

__all__ = [
    "ThreeWayEntry", "three_way_report",
    "Finding", "Related", "RuleValidationError", "Severity", "Span",
    "emit_json", "emit_text", "worst_severity",
    "InterprocReport", "SiteReport", "analyze_paths", "analyze_source",
    "Interval", "Tri", "analyze_condition",
    "check_rules", "load_rules_file", "overlap_report", "validate_rules",
    "emit_sarif", "validate_sarif",
    "StaticPrediction", "lint_paths_detailed",
]
