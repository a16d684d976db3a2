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


class TestSourcePipeline:
    """``lint --paths`` runs the usage linter and the interval analysis
    over one reader, one waiver rule and one finding per broken file."""

    def lint_json(self, capsys, *paths):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--no-overlap", "--format", "json",
                    "--paths", *paths)
        assert excinfo.value.code == 1
        return json.loads(capsys.readouterr().out)

    def ids(self, document):
        return [finding["id"] for finding in document["findings"]]

    def waived_source(self, tmp_path):
        source = tmp_path / "waived.py"
        source.write_text(
            "def run(vm):\n"
            "    items = ChameleonList(vm)  # lint: ignore[*]\n"
            "    for i in range(100):\n"
            "        items.add(i)\n"
            "    return items.size()\n")
        return str(source)

    def test_waiver_silences_both_passes(self, capsys, tmp_path):
        code, out = run_cli(capsys, "lint", "--no-overlap", "--format",
                            "json", "--paths", self.waived_source(tmp_path))
        assert code == 0
        document = json.loads(out)
        assert document["findings"] == []
        assert document["waived"] == {"L2-growth-no-capacity": 1,
                                      "L2I-interval-must": 1}

    def test_text_report_lists_waived_ids(self, capsys, tmp_path):
        code, out = run_cli(capsys, "lint", "--no-overlap", "--paths",
                            self.waived_source(tmp_path))
        assert code == 0
        assert out.splitlines() == [
            "waived: 1 x [L2-growth-no-capacity]",
            "waived: 1 x [L2I-interval-must]",
            "lint: no findings (2 waived)."]

    def test_missing_files_are_one_io_error_each(self, capsys, tmp_path):
        # A missing path given directly, and a dangling symlink found by
        # walking a directory.
        package = tmp_path / "package"
        package.mkdir()
        (package / "dangling.py").symlink_to(tmp_path / "nowhere.py")
        document = self.lint_json(capsys, str(tmp_path / "missing.py"),
                                  str(package))
        assert self.ids(document) == ["L2-io-error", "L2-io-error"]

    def test_non_utf8_file_is_one_io_error(self, capsys, tmp_path):
        (tmp_path / "latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
        document = self.lint_json(capsys, str(tmp_path))
        assert self.ids(document) == ["L2-io-error"]
        assert "utf-8" in document["findings"][0]["message"]

    def test_syntax_error_is_one_finding(self, capsys, tmp_path):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        document = self.lint_json(capsys, str(tmp_path))
        assert self.ids(document) == ["L2-syntax-error"]

    def test_signatures_need_paths(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(capsys, "lint", "--signatures",
                    str(tmp_path / "sig.json"))
        assert "--signatures requires --paths" in str(excinfo.value)


class TestDriftThroughCli:
    @pytest.fixture(scope="class")
    def session_store(self, tmp_path_factory):
        config = ToolConfig()
        workload = TvlaWorkload(scale=0.1)
        session = Chameleon(config).profile(workload)
        path = tmp_path_factory.mktemp("drift") / "store"
        cache = SessionCache()
        cache.attach_store(SessionStore(str(path)))
        cache.put(SessionCache.key(config, workload), session)
        return str(path)

    def test_drift_report_reaches_the_output(self, capsys, session_store):
        with pytest.raises(SystemExit):  # the tvla usage facts warn
            run_cli(capsys, "lint", "--paths", TVLA_SOURCE,
                    "--drift", session_store, "--no-overlap",
                    "--fail-on", "warning")
        out = capsys.readouterr().out
        for finding_id in ("L3-drift-agreement", "L3-unsubstantiated",
                           "L3-dynamic-only", "L3-proposal-confirmed"):
            assert finding_id in out
        assert "L3-static-only" not in out

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
