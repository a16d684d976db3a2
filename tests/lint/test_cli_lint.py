"""The ``lint`` CLI subcommand: formats, outputs, exit behaviour."""

import json
import os

import pytest

from repro.analysis.index import SessionStore
from repro.cli import main
from repro.core.chameleon import Chameleon, SessionCache
from repro.core.config import ToolConfig
from repro.lint.sarif import validate_sarif
from repro.workloads.tvla import TvlaWorkload

HERE = os.path.dirname(__file__)
PLANTED = os.path.join(HERE, "planted_defects.rules")
WORKLOADS = os.path.join(HERE, os.pardir, os.pardir,
                         "src", "repro", "workloads")
TVLA_SOURCE = os.path.join(WORKLOADS, "tvla.py")


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_builtin_rules_pass_fail_on_error(self, capsys):
        code, out = run_cli(capsys, "lint")
        assert code == 0
        assert "lint:" in out

    def test_builtin_overlap_warnings_trip_fail_on_warning(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--fail-on", "warning")
        assert excinfo.value.code == 1

    def test_no_overlap_filter_makes_builtins_warning_clean(self, capsys):
        code, out = run_cli(capsys, "lint", "--no-overlap",
                            "--fail-on", "warning")
        assert code == 0
        assert "no findings" in out

    def test_planted_defects_fail(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--rules", PLANTED)
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "L1-unknown-constant" in out
        assert "L1-unknown-impl" in out

    def test_missing_rules_file_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--rules", "/no/such/file.rules")
        assert "/no/such/file.rules" in str(excinfo.value)

    def test_self_lint_workloads_passes(self, capsys):
        # The CI leg: the repository's own workload sources lint clean
        # of errors under the builtin rule set.
        code, _out = run_cli(capsys, "lint", "--paths", WORKLOADS,
                             "--fail-on", "error")
        assert code == 0


class TestFormats:
    def test_json_format(self, capsys):
        code, out = run_cli(capsys, "lint", "--format", "json")
        assert code == 0
        document = json.loads(out)
        assert document["schema"] == "chameleon-lint"
        assert all("id" in f for f in document["findings"])

    def test_sarif_format_validates(self, capsys):
        code, out = run_cli(capsys, "lint", "--paths", TVLA_SOURCE,
                            "--format", "sarif")
        assert code == 0
        assert validate_sarif(out) == []

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "lint.sarif"
        code, out = run_cli(capsys, "lint", "--format", "sarif",
                            "--output", str(target))
        assert code == 0
        assert f"wrote {target}" in out
        assert validate_sarif(target.read_text()) == []

    def test_failing_output_run_names_the_failing_findings(self, capsys,
                                                           tmp_path):
        # One invocation both writes the artifact and gates: the log
        # must say what failed, not only where the report went.
        target = tmp_path / "lint.sarif"
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--rules", PLANTED, "--format",
                    "sarif", "--output", str(target), "--fail-on", "error")
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert f"wrote {target}" in out
        assert "L1-unknown-constant" in out
        assert "L1-unknown-impl" in out
        assert "L1-overlap-conflict" not in out  # a warning: below the bar
        assert validate_sarif(target.read_text()) == []


class TestDriftThroughCli:
    @pytest.fixture(scope="class")
    def session_store(self, tmp_path_factory):
        config = ToolConfig()
        workload = TvlaWorkload(scale=0.1)
        session = Chameleon(config).profile(workload)
        cache = SessionCache()
        cache.put(SessionCache.key(config, workload), session)
        path = tmp_path_factory.mktemp("drift") / "store"
        SessionStore(str(path)).save_cache(cache)
        return str(path)

    def test_drift_report_reaches_the_output(self, capsys, session_store):
        with pytest.raises(SystemExit):  # static-only is a warning
            run_cli(capsys, "lint", "--paths", TVLA_SOURCE,
                    "--drift", session_store, "--no-overlap",
                    "--fail-on", "warning")
        out = capsys.readouterr().out
        assert "L3-drift-agreement" in out
        assert "L3-static-only" in out
        assert "L3-dynamic-only" in out

    def test_missing_session_file_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--paths", TVLA_SOURCE,
                    "--drift", "/no/such/store")
        assert "/no/such/store" in str(excinfo.value)

    def test_regular_file_is_a_one_line_error(self, capsys, tmp_path):
        legacy = tmp_path / "sessions.pkl"
        legacy.write_bytes(b"\x80\x04 an old single-pickle spill")
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--paths", TVLA_SOURCE,
                    "--drift", str(legacy))
        message = str(excinfo.value)
        assert message.startswith(str(legacy))
        assert "not a session-store directory" in message
        assert "\n" not in message
