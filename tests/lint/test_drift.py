"""Layer 3 drift report: static predictions vs a real profiled session.

Profiles the tvla workload once (small scale, same pipeline as the
experiment driver), caches the session the way ``--session-cache``
does, and diffs it against the usage linter's predictions for
``src/repro/workloads/tvla.py`` -- the acceptance scenario: at least
one agreement, at least one static-only, at least one dynamic-only.
"""

import os
from collections import Counter

import pytest

from repro.analysis.index import SessionStore
from repro.core.chameleon import Chameleon, SessionCache
from repro.core.config import ToolConfig
from repro.lint.drift import (LINE_TOLERANCE, DriftEntry, drift_report,
                              load_sessions, three_way_report)
from repro.lint.findings import Severity
from repro.lint.usage import StaticPrediction, lint_paths
from repro.workloads.tvla import TvlaWorkload

WORKLOADS_DIR = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "src", "repro", "workloads")
TVLA_SOURCE = os.path.join(WORKLOADS_DIR, "tvla.py")


@pytest.fixture(scope="module")
def tvla_session():
    config = ToolConfig()
    workload = TvlaWorkload(scale=0.1)
    return Chameleon(config).profile(workload), config, workload


@pytest.fixture(scope="module")
def tvla_predictions():
    _findings, predictions = lint_paths([TVLA_SOURCE])
    return predictions


class TestTvlaDrift:
    def test_acceptance_shape(self, tvla_session, tvla_predictions):
        session, _config, _workload = tvla_session
        findings, entries = drift_report(tvla_predictions, [session])
        by_status = {}
        for entry in entries:
            by_status.setdefault(entry.status, []).append(entry)
        assert len(by_status.get("agreement", [])) >= 1
        assert len(by_status.get("static-only", [])) >= 1
        assert len(by_status.get("dynamic-only", [])) >= 1
        assert {f.id for f in findings} == {
            "L3-drift-agreement", "L3-static-only", "L3-dynamic-only"}

    def test_random_access_agreement(self, tvla_session, tvla_predictions):
        # tvla's trace log really is a LinkedList read with get(i): the
        # static fact and the profiled rule must meet at that site.
        session, _config, _workload = tvla_session
        _findings, entries = drift_report(tvla_predictions, [session])
        agreed = [e for e in entries if e.status == "agreement"
                  and e.rule == "random-access-linked-list"]
        assert agreed
        assert agreed[0].location == "repro.workloads.tvla.run"
        assert agreed[0].src_type == "LinkedList"

    def test_small_map_is_dynamic_only(self, tvla_session,
                                       tvla_predictions):
        # The seven factory-made maps fire small-map, a purely
        # threshold-dependent rule no syntactic fact can predict.
        session, _config, _workload = tvla_session
        _findings, entries = drift_report(tvla_predictions, [session])
        dynamic_only = {e.rule for e in entries
                        if e.status == "dynamic-only"}
        assert "small-map" in dynamic_only

    def test_severities(self, tvla_session, tvla_predictions):
        session, _config, _workload = tvla_session
        findings, _entries = drift_report(tvla_predictions, [session])
        severity = {f.id: f.severity for f in findings}
        assert severity["L3-drift-agreement"] is Severity.NOTE
        assert severity["L3-static-only"] is Severity.WARNING
        assert severity["L3-dynamic-only"] is Severity.NOTE

    def test_session_cache_round_trip(self, tvla_session,
                                      tvla_predictions, tmp_path):
        # The CLI consumes --session-cache stores; the drift report
        # must be identical on the cached (vm=None) sessions.
        session, config, workload = tvla_session
        store_dir = str(tmp_path / "store")
        cache = SessionCache()
        cache.put(SessionCache.key(config, workload), session)
        assert SessionStore(store_dir).save_cache(cache) == 1

        loaded = load_sessions(store_dir)
        assert len(loaded) == 1 and loaded[0].vm is None
        _live, live_entries = drift_report(tvla_predictions, [session])
        _cached, cached_entries = drift_report(tvla_predictions, loaded)
        assert cached_entries == live_entries


class TestMatchingRules:
    def _prediction(self, line):
        return StaticPrediction(
            location="repro.workloads.x.run",
            src_types=frozenset({"ArrayList"}),
            predicted_rule="incremental-resizing",
            finding_id="L2-growth-no-capacity",
            file="x.py", line=line)

    def _session(self, dynamic_line):
        # A minimal stand-in with the one attribute shape drift reads.
        class Frame:
            location = "repro.workloads.x.run"
            line = dynamic_line

        class Key:
            frames = (Frame(),)

        class Profile:
            key = Key()
            src_type = "ArrayList"

            @staticmethod
            def render_context():
                return f"ArrayList:repro.workloads.x.run:{dynamic_line}"

        class Rule:
            text = ("Collection : maxSize > initialCapacity "
                    "& maxSize >= RESIZE_MIN -> setCapacity(maxSize)")

        class Suggestion:
            profile = Profile()
            rule = Rule()
            secondary = []

        class Session:
            suggestions = [Suggestion()]

        return Session()

    def test_line_proximity_separates_same_type_sites(self):
        # Two same-type allocations in one function must not cross-match:
        # the agreement only forms within the line tolerance.
        near = drift_report([self._prediction(line=40)],
                            [self._session(dynamic_line=40 + LINE_TOLERANCE)])
        far = drift_report([self._prediction(line=40)],
                           [self._session(dynamic_line=90)])
        assert [e.status for e in near[1]] == ["agreement"]
        assert sorted(e.status for e in far[1]) == [
            "dynamic-only", "static-only"]

    def test_unknown_line_does_not_discriminate(self):
        report = drift_report([self._prediction(line=0)],
                              [self._session(dynamic_line=90)])
        assert [e.status for e in report[1]] == ["agreement"]

    def test_empty_inputs(self):
        findings, entries = drift_report([], [])
        assert findings == [] and entries == []
        assert DriftEntry("agreement", "loc", "ArrayList", "r").rule == "r"


class TestThreeWayReport:
    """Interval verdicts refine the two-way drift statuses."""

    def _prediction(self, line=40):
        return StaticPrediction(
            location="repro.workloads.x.run",
            src_types=frozenset({"ArrayList"}),
            predicted_rule="incremental-resizing",
            finding_id="L2-growth-no-capacity",
            file="x.py", line=line)

    def _session(self, dynamic_line=40):
        helper = TestMatchingRules()
        return helper._session(dynamic_line=dynamic_line)

    def _classify(self, verdict):
        from repro.rules.evaluator import Tri
        return lambda _prediction: Tri[verdict]

    def test_agreement_carries_verdict(self):
        findings, entries = three_way_report(
            [self._prediction()], [self._session()],
            self._classify("TRUE"))
        (entry,) = [e for e in entries if e.status == "agreement"]
        assert entry.verdict == "must"
        (finding,) = [f for f in findings
                      if f.id == "L3-drift-agreement"]
        assert "must" in finding.message

    def test_must_without_profile_is_coverage_gap(self):
        findings, entries = three_way_report(
            [self._prediction()], [], self._classify("TRUE"))
        (entry,) = entries
        assert entry.status == "coverage-gap"
        (finding,) = findings
        assert finding.id == "L3-coverage-gap"
        assert finding.severity is Severity.WARNING

    def test_must_at_profiled_context_is_gated(self):
        # Dynamic session profiles the context but the rule never
        # fired there: a dynamic gate blocked it.
        session = self._session()
        suggestion = session.suggestions[0]
        suggestion.rule.text = ("List : #get(int) > REQUIRED_MANY "
                                "-> replace LinkedList ArrayList")
        _findings, entries = three_way_report(
            [self._prediction()], [session], self._classify("TRUE"))
        statuses = {e.status for e in entries}
        assert "static-only-gated" in statuses

    def test_refuted_prediction(self):
        findings, entries = three_way_report(
            [self._prediction()], [], self._classify("FALSE"))
        (entry,) = entries
        assert entry.status == "refuted"
        assert entry.verdict == "refuted"
        (finding,) = findings
        assert finding.id == "L3-refuted"
        assert finding.severity is Severity.NOTE

    def test_unknown_prediction_is_unsubstantiated(self):
        findings, entries = three_way_report(
            [self._prediction()], [], self._classify("UNKNOWN"))
        (entry,) = entries
        assert entry.status == "unsubstantiated"
        (finding,) = findings
        assert finding.id == "L3-unsubstantiated"

    def test_proposal_confirmed(self):
        findings, entries = three_way_report(
            [], [self._session()], self._classify("UNKNOWN"),
            proposals=[("repro.workloads.x.run", 40, "ArrayList",
                        "incremental-resizing", "setCapacity(60)")])
        (entry,) = [e for e in entries
                    if e.status.startswith("proposal")]
        assert entry.status == "proposal-confirmed"
        assert any(f.id == "L3-proposal-confirmed" for f in findings)

    def test_proposal_conflict_is_warning(self):
        session = self._session()
        session.suggestions[0].rule.text = (
            "List : #contains > CONTAINS_MANY -> replace ArrayList "
            "ArraySet")
        findings, entries = three_way_report(
            [], [session], self._classify("UNKNOWN"),
            proposals=[("repro.workloads.x.run", 40, "ArrayList",
                        "incremental-resizing", "setCapacity(60)")])
        (entry,) = [e for e in entries
                    if e.status.startswith("proposal")]
        assert entry.status == "proposal-conflict"
        (finding,) = [f for f in findings
                      if f.id == "L3-proposal-conflict"]
        assert finding.severity is Severity.WARNING

    def test_proposal_without_dynamic_site_is_new(self):
        _findings, entries = three_way_report(
            [], [], self._classify("UNKNOWN"),
            proposals=[("repro.workloads.x.run", 40, "ArrayList",
                        "small-map", "replace with ArrayMap(1)")])
        (entry,) = entries
        assert entry.status == "proposal-new"

    def test_tvla_interproc_three_way(self, tvla_session,
                                      tvla_predictions):
        # The real pipeline: interval classification of the coarse tvla
        # predictions against the profiled session.  Every interval
        # *must* that overlaps a dynamic decision has to agree -- a
        # refuted agreement would expose an unsound transfer function.
        from repro.lint.interproc import analyze_paths

        session, _config, _workload = tvla_session
        report = analyze_paths([TVLA_SOURCE])
        findings, entries = three_way_report(
            tvla_predictions, [session], report.classify,
            report.proposal_rows())
        by_status = {}
        for entry in entries:
            by_status.setdefault(entry.status, []).append(entry)
        assert len(by_status.get("agreement", [])) >= 1
        for entry in by_status.get("agreement", []):
            assert entry.verdict != "refuted"
        assert not by_status.get("proposal-conflict")


class TestPinnedThreeWayTallies:
    def test_workload_sources_against_three_sessions(self):
        # The EXPERIMENTS.md three-way drift numbers: src/repro/workloads
        # against tvla, pmd and bloat optimized at scale 0.1.  A shift in
        # any interval verdict moves these counts.
        from repro.lint.interproc import analyze_paths
        from repro.lint.usage import lint_paths_detailed
        from repro.workloads import BloatWorkload, PmdWorkload

        tool = Chameleon()
        sessions = [tool.optimize(cls(scale=0.1)).session
                    for cls in (TvlaWorkload, PmdWorkload, BloatWorkload)]
        paths = [WORKLOADS_DIR]
        _findings, predictions, _waived = lint_paths_detailed(paths)
        report = analyze_paths(paths)
        _findings, entries = three_way_report(
            predictions, sessions, report.classify, report.proposal_rows())
        assert Counter(entry.status for entry in entries) == {
            "agreement": 2, "refuted": 3, "coverage-gap": 1,
            "unsubstantiated": 5, "dynamic-only": 10,
            "proposal-confirmed": 1, "proposal-new": 2}
