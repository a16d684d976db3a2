"""Layer 3 drift report: static predictions vs a real profiled session.

Profiles the tvla workload once (small scale, same pipeline as the
experiment driver), caches the session the way ``--session-cache``
does, and diffs it against the static passes' view of
``src/repro/workloads/tvla.py`` -- the acceptance scenario: at least one
agreement, at least one prediction the run did not confirm, at least one
dynamic-only rule.
"""

import os
import textwrap
from collections import Counter

import pytest

from repro.analysis.index import SessionStore
from repro.core.chameleon import Chameleon, SessionCache
from repro.core.config import ToolConfig
from repro.lint.drift import (LINE_TOLERANCE, ThreeWayEntry, load_sessions,
                              three_way_report)
from repro.lint.findings import Severity
from repro.lint.interproc import analyze_paths, analyze_source
from repro.lint.usage import StaticPrediction, lint_paths_detailed
from repro.rules.evaluator import Tri
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
def tvla_static():
    _findings, predictions, _waived = lint_paths_detailed([TVLA_SOURCE])
    return predictions, analyze_paths([TVLA_SOURCE])


def tvla_drift(tvla_static, sessions):
    predictions, report = tvla_static
    return three_way_report(predictions, sessions, report.classify,
                            report.proposal_rows())


def _classify(verdict):
    return lambda _prediction: Tri[verdict]


class TestTvlaDrift:
    def test_acceptance_shape(self, tvla_session, tvla_static):
        session, _config, _workload = tvla_session
        findings, entries = tvla_drift(tvla_static, [session])
        by_status = Counter(entry.status for entry in entries)
        assert by_status["agreement"] >= 1
        # The prediction the run did not confirm: its intervals straddle
        # the rule's thresholds.
        assert by_status["unsubstantiated"] >= 1
        assert by_status["dynamic-only"] >= 1
        assert {f.id for f in findings} == {
            "L3-drift-agreement", "L3-unsubstantiated", "L3-dynamic-only",
            "L3-proposal-confirmed"}

    def test_random_access_agreement(self, tvla_session, tvla_static):
        # tvla's trace log really is a LinkedList read with get(i): the
        # static fact and the profiled rule must meet at that site.
        session, _config, _workload = tvla_session
        _findings, entries = tvla_drift(tvla_static, [session])
        agreed = [e for e in entries if e.status == "agreement"
                  and e.rule == "random-access-linked-list"]
        assert agreed
        assert agreed[0].location == "repro.workloads.tvla.run"
        assert agreed[0].src_type == "LinkedList"

    def test_small_map_is_dynamic_only(self, tvla_session, tvla_static):
        # The seven factory-made maps fire small-map, a purely
        # threshold-dependent rule no syntactic fact can predict.
        session, _config, _workload = tvla_session
        _findings, entries = tvla_drift(tvla_static, [session])
        dynamic_only = {e.rule for e in entries
                        if e.status == "dynamic-only"}
        assert "small-map" in dynamic_only

    def test_severities(self, tvla_session, tvla_static):
        session, _config, _workload = tvla_session
        findings, _entries = tvla_drift(tvla_static, [session])
        severity = {f.id: f.severity for f in findings}
        assert severity["L3-drift-agreement"] is Severity.NOTE
        assert severity["L3-unsubstantiated"] is Severity.NOTE
        assert severity["L3-dynamic-only"] is Severity.NOTE
        assert severity["L3-proposal-confirmed"] is Severity.NOTE

    def test_session_cache_round_trip(self, tvla_session, tvla_static,
                                      tmp_path):
        # The CLI consumes --session-cache stores; the drift report
        # must be identical on the cached (vm=None) sessions.
        session, config, workload = tvla_session
        store_dir = str(tmp_path / "store")
        cache = SessionCache()
        cache.attach_store(SessionStore(store_dir))
        cache.put(SessionCache.key(config, workload), session)

        loaded = load_sessions(store_dir)
        assert len(loaded) == 1 and loaded[0].vm is None
        _live, live_entries = tvla_drift(tvla_static, [session])
        _cached, cached_entries = tvla_drift(tvla_static, loaded)
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
        near = three_way_report(
            [self._prediction(line=40)],
            [self._session(dynamic_line=40 + LINE_TOLERANCE)],
            _classify("UNKNOWN"))
        far = three_way_report([self._prediction(line=40)],
                               [self._session(dynamic_line=90)],
                               _classify("UNKNOWN"))
        assert [e.status for e in near[1]] == ["agreement"]
        assert sorted(e.status for e in far[1]) == [
            "dynamic-only", "unsubstantiated"]

    def test_unknown_line_does_not_discriminate(self):
        report = three_way_report([self._prediction(line=0)],
                                  [self._session(dynamic_line=90)],
                                  _classify("UNKNOWN"))
        assert [e.status for e in report[1]] == ["agreement"]

    def test_interval_sites_match_within_the_same_tolerance(self):
        # The interval analysis matches its sites to coarse predictions
        # by the rule the drift report matches dynamic sites with.
        report = analyze_source(textwrap.dedent("""
            def run(vm):
                buffer = ChameleonList(vm)
                for i in range(100):
                    buffer.add(i)
                return buffer.size()
        """), "src/repro/workloads/x.py")
        (site,) = report.sites
        near = self._prediction(line=site.coarse_line + LINE_TOLERANCE)
        far = self._prediction(line=site.coarse_line + LINE_TOLERANCE + 1)
        assert report.classify(near) is Tri.TRUE
        assert report.classify(far) is Tri.UNKNOWN

    def test_empty_inputs(self):
        findings, entries = three_way_report([], [], _classify("UNKNOWN"))
        assert findings == [] and entries == []
        assert ThreeWayEntry("agreement", "loc", "ArrayList", "r").rule == "r"


class TestThreeWayReport:
    """Each interval verdict gives a prediction its own status."""

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

    def test_agreement_carries_verdict(self):
        findings, entries = three_way_report(
            [self._prediction()], [self._session()],
            _classify("TRUE"))
        (entry,) = [e for e in entries if e.status == "agreement"]
        assert entry.verdict == "must"
        (finding,) = [f for f in findings
                      if f.id == "L3-drift-agreement"]
        assert "must" in finding.message

    def test_must_without_profile_is_coverage_gap(self):
        findings, entries = three_way_report(
            [self._prediction()], [], _classify("TRUE"))
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
            [self._prediction()], [session], _classify("TRUE"))
        statuses = {e.status for e in entries}
        assert "static-only-gated" in statuses

    def test_refuted_prediction(self):
        findings, entries = three_way_report(
            [self._prediction()], [], _classify("FALSE"))
        (entry,) = entries
        assert entry.status == "refuted"
        assert entry.verdict == "refuted"
        (finding,) = findings
        assert finding.id == "L3-refuted"
        assert finding.severity is Severity.NOTE

    def test_unknown_prediction_is_unsubstantiated(self):
        findings, entries = three_way_report(
            [self._prediction()], [], _classify("UNKNOWN"))
        (entry,) = entries
        assert entry.status == "unsubstantiated"
        (finding,) = findings
        assert finding.id == "L3-unsubstantiated"

    def test_proposal_confirmed(self):
        findings, entries = three_way_report(
            [], [self._session()], _classify("UNKNOWN"),
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
            [], [session], _classify("UNKNOWN"),
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
            [], [], _classify("UNKNOWN"),
            proposals=[("repro.workloads.x.run", 40, "ArrayList",
                        "small-map", "replace with ArrayMap(1)")])
        (entry,) = entries
        assert entry.status == "proposal-new"

    def test_tvla_interproc_three_way(self, tvla_session, tvla_static):
        # The real pipeline: interval classification of the coarse tvla
        # predictions against the profiled session.  Every interval
        # *must* that overlaps a dynamic decision has to agree -- a
        # refuted agreement would expose an unsound transfer function.
        session, _config, _workload = tvla_session
        _findings, entries = tvla_drift(tvla_static, [session])
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
