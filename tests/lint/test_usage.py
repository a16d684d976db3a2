"""Layer 2 usage linter: AST facts, factories, escapes, waivers."""

import textwrap

from repro.lint.usage import lint_paths_detailed, lint_source_detailed


def lint(source, path="src/repro/workloads/example.py"):
    findings, predictions, _waived = lint_source_detailed(
        textwrap.dedent(source), path)
    return findings, predictions


def ids_of(findings):
    return {finding.id for finding in findings}


class TestAllocationFacts:
    def test_never_used(self):
        findings, predictions = lint("""
            def run(vm):
                junk = ChameleonList(vm)
        """)
        assert ids_of(findings) == {"L2-never-used"}
        (finding,) = findings
        assert finding.span.line == 3
        assert finding.context == \
            "ArrayList:repro.workloads.example.run:3"
        (prediction,) = predictions
        assert prediction.predicted_rule == "redundant-collection"
        assert prediction.location == "repro.workloads.example.run"

    def test_contains_in_loop(self):
        findings, predictions = lint("""
            def run(vm, items):
                seen = ChameleonList(vm)
                for item in items:
                    if seen.contains(item):
                        continue
                    seen.add(item)
        """)
        assert "L2-contains-in-loop" in ids_of(findings)
        assert any(p.predicted_rule == "contains-heavy-list"
                   for p in predictions)

    def test_contains_outside_loop_is_fine(self):
        findings, _ = lint("""
            def run(vm, item):
                seen = ChameleonList(vm)
                seen.add(item)
                return seen.contains(item)
        """)
        assert "L2-contains-in-loop" not in ids_of(findings)

    def test_indexed_get_in_loop_on_linked_list(self):
        findings, predictions = lint("""
            def run(vm, n):
                log = ChameleonList(vm, src_type="LinkedList")
                for i in range(n):
                    log.add(i)
                for i in range(n):
                    total = log.get(i)
        """)
        assert "L2-indexed-get-in-loop" in ids_of(findings)
        assert any(p.predicted_rule == "random-access-linked-list"
                   for p in predictions)

    def test_growth_without_capacity(self):
        findings, predictions = lint("""
            def run(vm, n):
                buffer = ChameleonList(vm)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)
        assert any(p.predicted_rule == "incremental-resizing"
                   for p in predictions)

    def test_growth_with_capacity_is_fine(self):
        findings, _ = lint("""
            def run(vm, n):
                buffer = ChameleonList(vm, initial_capacity=256)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" not in ids_of(findings)

    def test_conditional_none_capacity_counts_as_unset(self):
        # The manual-fix idiom: the unfixed arm is what profiling sees.
        findings, _ = lint("""
            def run(vm, n, fixed):
                buffer = ChameleonList(
                    vm, initial_capacity=256 if fixed else None)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)

    def test_never_mutated_note(self):
        findings, _ = lint("""
            def run(vm, fill):
                table = ChameleonMap(vm)
                if fill:
                    pass
                size = len(table)
        """)
        assert "L2-never-mutated" in ids_of(findings)


class TestEscapesAndRebinding:
    def test_escape_suppresses_never_used(self):
        findings, _ = lint("""
            def run(vm, sink):
                table = ChameleonMap(vm)
                sink.append(table)
        """)
        assert "L2-never-used" not in ids_of(findings)

    def test_rebinding_kills_association(self):
        findings, _ = lint("""
            def run(vm, n):
                buffer = ChameleonList(vm)
                buffer.add(1)
                buffer = []
                for i in range(n):
                    buffer.add(i)
        """)
        assert "L2-growth-no-capacity" not in ids_of(findings)


class TestFactoriesAndTemporaries:
    def test_self_factory_resolution(self):
        findings, predictions = lint("""
            class Workload:
                def _make_table(self, vm):
                    return ChameleonMap(vm, src_type="HashMap")

                def run(self, vm, n):
                    table = self._make_table(vm)
                    for i in range(n):
                        table.put(i, i)
                    return table
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)
        (prediction,) = predictions
        assert prediction.src_types == frozenset({"HashMap"})
        assert prediction.location == "repro.workloads.example.run"

    def test_pin_chain_unwrapped(self):
        findings, _ = lint("""
            def run(vm):
                junk = ChameleonSet(vm).pin()
        """)
        assert "L2-never-used" in ids_of(findings)

    def test_if_exp_src_type_gives_candidate_set(self):
        _, predictions = lint("""
            def run(vm, n, linked):
                buffer = ChameleonList(
                    vm,
                    src_type="LinkedList" if linked else "ArrayList")
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        (prediction,) = predictions
        assert prediction.src_types == frozenset(
            {"ArrayList", "LinkedList"})

    def test_iterated_factory_temporary(self):
        findings, _ = lint("""
            def make_items(vm):
                return ChameleonList(vm)

            def run(vm):
                for item in make_items(vm).iterate():
                    print(item)
        """)
        assert "L2-temporary-iterated" in ids_of(findings)


class TestInfrastructure:
    def test_waiver_comment_suppresses(self):
        findings, _ = lint("""
            def run(vm):
                junk = ChameleonList(vm)  # lint: ignore[L2-never-used]
        """)
        assert findings == []

    def test_star_waiver_suppresses_all(self):
        findings, _ = lint("""
            def run(vm, n):
                buffer = ChameleonList(vm)  # lint: ignore[*]
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert findings == []

    def test_syntax_error_is_a_finding(self):
        findings, predictions, _ = lint_source_detailed("def broken(:\n",
                                                        "bad.py")
        assert ids_of(findings) == {"L2-syntax-error"}
        assert predictions == []

    def test_unreadable_files_are_one_finding_each(self, tmp_path):
        # Both passes read through one reader: a non-UTF-8 file and a
        # missing path are findings, and the two passes agree on them.
        from repro.lint.interproc import analyze_paths

        (tmp_path / "latin1.py").write_bytes(b"name = '\xe9t\xe9'\n")
        paths = [str(tmp_path), str(tmp_path / "missing.py")]
        findings, predictions, _ = lint_paths_detailed(paths)
        assert ids_of(findings) == {"L2-io-error"} and len(findings) == 2
        assert predictions == []
        assert analyze_paths(paths).findings == findings

    def test_a_file_named_twice_is_read_once(self, monkeypatch):
        # A file reached through its directory and named again with a
        # redundant "./" is one file to both source passes.
        import os

        from repro.lint.interproc import analyze_paths

        monkeypatch.chdir(os.path.join(os.path.dirname(__file__),
                                       os.pardir, os.pardir))
        once = ["src/repro/workloads"]
        twice = once + ["./src/repro/workloads/pmd.py"]
        findings, predictions, _ = lint_paths_detailed(twice)
        assert (findings, predictions) == lint_paths_detailed(once)[:2]
        report = analyze_paths(twice)
        assert len(report.sites) == len(analyze_paths(once).sites) == 31
        assert report.proposal_rows() == analyze_paths(once).proposal_rows()

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "repro" / "workloads"
        package.mkdir(parents=True)
        (package / "one.py").write_text(
            "def run(vm):\n    junk = ChameleonList(vm)\n")
        (package / "notes.txt").write_text("not python\n")
        findings, _, _ = lint_paths_detailed([str(tmp_path)])
        (finding,) = findings
        assert finding.id == "L2-never-used"
        assert finding.span.file.endswith("one.py")
        assert "repro.workloads.one.run" in finding.context

    def test_self_lint_workloads_has_no_errors(self):
        # The repository's own workloads must lint without errors (the
        # CI leg runs exactly this through the CLI).
        import os

        from repro.lint.findings import Severity

        workloads = os.path.join(os.path.dirname(__file__), os.pardir,
                                 os.pardir, "src", "repro", "workloads")
        findings, predictions, _ = lint_paths_detailed([workloads])
        assert all(f.severity is not Severity.ERROR for f in findings)
        assert predictions  # the tvla/fop facts the drift test relies on


class TestCapacityConstProp:
    """Regression: ``initial_capacity=`` through named constants.

    The walker resolves module constants, class constants (including
    ``self.X = ...``), local assignments and keyword defaults before
    deciding whether a capacity is reliably set; a constant that
    resolves to ``None`` is *unset* (the profiler sees the default
    growth path), and an unresolvable name stays conservatively set.
    """

    def test_module_constant_counts_as_set(self):
        findings, _ = lint("""
            CAP = 64

            def run(vm, n):
                buffer = ChameleonList(vm, initial_capacity=CAP)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" not in ids_of(findings)

    def test_module_constant_none_counts_as_unset(self):
        findings, _ = lint("""
            CAP = None

            def run(vm, n):
                buffer = ChameleonList(vm, initial_capacity=CAP)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)

    def test_keyword_default_none_counts_as_unset(self):
        findings, _ = lint("""
            def run(vm, n, cap=None):
                buffer = ChameleonList(vm, initial_capacity=cap)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)

    def test_self_attribute_constant_resolves(self):
        findings, _ = lint("""
            class Job:
                def __init__(self):
                    self.cap = None

                def run(self, vm, n):
                    buffer = ChameleonList(vm, initial_capacity=self.cap)
                    for i in range(n):
                        buffer.add(i)
                    return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)

    def test_conditional_constant_chain(self):
        findings, _ = lint("""
            SIZE = 128

            def run(vm, n, fixed):
                cap = SIZE if fixed else None
                buffer = ChameleonList(vm, initial_capacity=cap)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" in ids_of(findings)

    def test_unresolvable_name_stays_conservative(self):
        findings, _ = lint("""
            from repro.config import CAP

            def run(vm, n):
                buffer = ChameleonList(vm, initial_capacity=CAP)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        assert "L2-growth-no-capacity" not in ids_of(findings)
