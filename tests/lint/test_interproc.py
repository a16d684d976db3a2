"""Layer 2.5 interprocedural interval analysis: domain, loops,
summaries, rule verdicts and the static proposal."""

import ast
import dataclasses
import glob
import os
import textwrap
from typing import Set

import pytest

from repro.lint.interproc import (InterprocReport, SiteState,
                                  _collect_sites, _ModuleAnalysis,
                                  analyze_source)
from repro.rules.evaluator import Tri

REPO = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)


def analyze(source, path="src/repro/workloads/example.py"):
    return analyze_source(textwrap.dedent(source), path)


def _module(source, path="example.py"):
    return _ModuleAnalysis(ast.parse(textwrap.dedent(source)), "example",
                           path)


def site_named(report, variable):
    matches = [s for s in report.sites if s.variable == variable]
    assert matches, f"no site bound to {variable!r}; " \
        f"have {[s.variable for s in report.sites]}"
    return matches[0]


def verdict(site, rule, src_type=None):
    src = src_type or site.src_types[0]
    return site.verdicts[src][rule]


class TestIntervalInference:
    def test_constant_loop_bound_is_exact(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm):
                buffer = ChameleonList(vm)
                for i in range(18):
                    buffer.add(i)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 18.0
        assert site.max_size.hi == 18.0
        assert site.ops["#add"].lo == 18.0
        assert site.ops["#add"].hi == 18.0
        assert site.size_stable

    def test_break_makes_lower_bound_zero(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, items):
                buffer = ChameleonList(vm)
                for i in range(10):
                    if i in items:
                        break
                    buffer.add(i)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 0.0
        assert site.max_size.hi == 10.0
        assert not site.size_stable

    def test_opaque_bound_widens_to_infinity(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, n):
                buffer = ChameleonList(vm)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 0.0
        assert site.max_size.hi == float("inf")

    def test_len_bound_propagates(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm):
                source = [1, 2, 3]
                buffer = ChameleonList(vm)
                for item in source:
                    buffer.add(item)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 3.0
        assert site.max_size.hi == 3.0

    def test_augassign_through_loop(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm):
                total = 0
                buffer = ChameleonList(vm)
                for i in range(6):
                    total += 2
                    buffer.add(total)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 6.0
        assert site.max_size.hi == 6.0

    def test_conditional_growth_straddles(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, flag):
                buffer = ChameleonList(vm)
                if flag:
                    buffer.add(1)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 0.0
        assert site.max_size.hi == 1.0

    def test_while_loop_is_unbounded(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, queue):
                buffer = ChameleonList(vm)
                while queue.pending():
                    buffer.add(queue.take())
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.hi == float("inf")

    def test_remove_shrinks_but_peak_stays(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm):
                buffer = ChameleonList(vm)
                for i in range(5):
                    buffer.add(i)
                for i in range(5):
                    buffer.remove_first()
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.max_size.lo == 5.0
        assert site.max_size.hi == 5.0
        assert site.size.lo == 0.0


class TestInterproceduralSummaries:
    FACTORY = """
        from repro.collections import ChameleonMap

        def make_index(vm):
            return ChameleonMap(vm)

        def run(vm):
            index = make_index(vm)
            for i in range(12):
                index.put(i, i)
            return index
    """

    def test_factory_site_carries_chain(self):
        report = analyze(self.FACTORY)
        site = site_named(report, "index")
        assert site.location.endswith("make_index")
        assert site.coarse_location.endswith("run")
        assert site.chain
        assert "make_index" in site.chain[-1][2]

    def test_callee_mutation_charged_at_callsite(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def fill(buffer):
                for i in range(7):
                    buffer.add(i)

            def run(vm):
                buffer = ChameleonList(vm)
                fill(buffer)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.ops["#add"].lo == 7.0
        assert site.ops["#add"].hi == 7.0
        assert site.max_size.lo == 7.0

    def test_recursion_degrades_soundly(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def fill(buffer, n):
                if n > 0:
                    buffer.add(n)
                    fill(buffer, n - 1)

            def run(vm):
                buffer = ChameleonList(vm)
                fill(buffer, 4)
                return buffer
        """)
        site = site_named(report, "buffer")
        # A recursive summary may not be exact, but it must not claim
        # a finite bound tighter than the real growth.
        assert site.max_size.hi >= 4.0 or site.escaped

    def test_tuple_in_pylist_keeps_tracking(self):
        # Storing a collection inside a tuple inside a plain Python
        # list must neither escape the site nor drop later op charges
        # read back through iteration + unpacking.
        report = analyze("""
            from repro.collections import ChameleonMap

            def run(vm):
                acc = []
                for i in range(3):
                    table = ChameleonMap(vm)
                    table.put(i, i)
                    acc.append((table,))
                for (table,) in acc:
                    table.get(1)
        """)
        site = site_named(report, "table")
        assert not site.escaped
        assert site.max_size.hi == 1.0
        gets = site.ops["#get(Object)"]
        assert gets.lo <= 3.0 <= gets.hi

    def test_escaped_site_is_not_stable(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, sink):
                buffer = ChameleonList(vm)
                buffer.add(1)
                sink.consume(buffer)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert site.escaped
        assert not site.size_stable


class TestRuleVerdicts:
    def test_incremental_resizing_proved(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm):
                buffer = ChameleonList(vm)
                for i in range(18):
                    buffer.add(i)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert verdict(site, "incremental-resizing") is Tri.TRUE

    def test_incremental_resizing_refuted_below_threshold(self):
        # RESIZE_MIN is 8; a provable ceiling of 4 refutes the rule.
        report = analyze("""
            from repro.collections import ChameleonMap

            def run(vm):
                props = ChameleonMap(vm)
                for i in range(4):
                    props.put(i, i)
                return props
        """)
        site = site_named(report, "props")
        assert verdict(site, "incremental-resizing") is Tri.FALSE

    def test_small_map_decision(self):
        report = analyze("""
            from repro.collections import ChameleonMap

            def run(vm):
                singleton = ChameleonMap(vm)
                singleton.put("k", "v")
                return singleton
        """)
        site = site_named(report, "singleton")
        assert verdict(site, "small-map") is Tri.TRUE
        rule, suggestion = site.decisions[site.src_types[0]]
        assert rule == "small-map"
        assert "ArrayMap" in suggestion.action.render()

    def test_opaque_bound_gives_unknown(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def run(vm, n):
                buffer = ChameleonList(vm)
                for i in range(n):
                    buffer.add(i)
                return buffer
        """)
        site = site_named(report, "buffer")
        assert verdict(site, "incremental-resizing") is Tri.UNKNOWN

    def test_interval_must_finding_has_related_chain(self):
        report = analyze("""
            from repro.collections import ChameleonMap

            def make_map(vm):
                return ChameleonMap(vm)

            def run(vm):
                unused = make_map(vm)
                unused.is_empty()
                return unused
        """)
        musts = [f for f in report.findings
                 if f.id == "L2I-interval-must"]
        assert musts
        assert any(f.related for f in musts)

    def test_proposal_rows_shape(self):
        report = analyze("""
            from repro.collections import ChameleonMap

            def run(vm):
                singleton = ChameleonMap(vm)
                singleton.put("k", "v")
                return singleton
        """)
        rows = report.proposal_rows()
        assert rows
        location, line, src_type, rule, detail = rows[0]
        assert location.endswith("run")
        assert line > 0
        assert src_type == "HashMap"
        assert rule == "small-map"
        assert detail


class TestReportFindings:
    """What an analysed source reports besides its sites."""

    def test_syntax_error_reported_not_raised(self):
        report = analyze_source("def broken(:\n", "bad.py")
        assert isinstance(report, InterprocReport)
        assert [f.id for f in report.findings] == ["L2-syntax-error"]
        assert report.sites == []

    def test_waiver_silences_interval_finding(self):
        report = analyze("""
            def run(vm):
                items = ChameleonList(vm)  # lint: ignore[L2I-interval-must]
                for i in range(100):
                    items.add(i)
                return items.size()
        """)
        assert report.findings == []
        assert report.waived == {"L2I-interval-must": 1}
        assert report.proposal_rows()  # the verdict itself stands


class TestUnexecutedCallers:
    """A function called only from code the interpreter never executes
    has callers the analysis cannot see, so what it returns escapes."""

    def test_factory_called_in_a_comprehension_is_not_a_must(self):
        report = analyze("""
            from repro.collections import ChameleonList

            class W:
                def make(self, vm):
                    return ChameleonList(vm)

                def run(self, vm):
                    lists = [self.make(vm) for _ in range(50)]
                    for lst in lists:
                        for i in range(100):
                            lst.add(i)
        """)
        (site,) = report.sites
        assert site.location.endswith("make")
        assert site.escaped
        assert site.max_size.hi == float("inf")
        assert not [f for f in report.findings
                    if f.id == "L2I-interval-must"]

    def test_factory_called_in_a_lambda_is_not_a_must(self):
        report = analyze("""
            from repro.collections import ChameleonList

            def helper(vm):
                return ChameleonList(vm)

            def run(vm):
                f = lambda: helper(vm)
                a = f()
                for i in range(100):
                    a.add(i)
        """)
        (site,) = report.sites
        assert site.location.endswith("helper")
        assert site.escaped
        assert not [f for f in report.findings
                    if f.id == "L2I-interval-must"]

    @pytest.mark.parametrize("expr, taken", [
        ("[helper(x) for x in items]", True),
        ("[x for x in items if helper(x)]", True),
        ("{helper(x): x for x in items}", True),
        ("(x for x in items for y in helper(x))", False),
        ("[x for x in helper(items)]", False),
        ("sorted(items, key=lambda x: helper(x))", True),
        ("helper(items)", False),
        ("helper", True),
    ])
    def test_comprehension_iterables_are_executed(self, expr, taken):
        owner = _module(f"""
            def helper(x):
                return x

            def run(items):
                return {expr}
        """)
        assert ("helper" in owner.address_taken) is taken


class TestModuleGlobals:
    @pytest.mark.parametrize("user, escapes", [
        ("def register(x):\n    return REGISTRY", True),
        ("class C:\n    def get(self):\n        return REGISTRY", True),
        ("def register(x):\n    return lambda: REGISTRY", True),
        ("def register(x):\n    return x", False),
    ])
    def test_collection_named_in_a_function_escapes(self, user, escapes):
        # Code reached through the global namespace may mutate it.
        report = analyze_source(
            "from repro.collections import ChameleonList\n"
            "REGISTRY = ChameleonList(None)\n"
            "REGISTRY.add(1)\n\n" + user + "\n",
            "src/repro/workloads/example.py")
        (site,) = report.sites
        assert site.escaped is escapes
        assert bool(report.findings) is not escapes


def _reference_address_taken(owner: _ModuleAnalysis) -> frozenset:
    """The address-taken scan as three walks (nested plain defs only);
    kept as the oracle for the single-pass ``_prescan``."""
    known: Set[str] = set(owner.functions)
    for methods in owner.classes.values():
        known.update(methods)
    modeled = set(owner.functions.values())
    for methods in owner.classes.values():
        modeled.update(methods.values())
    nested: Set[int] = set()
    for fn in modeled:
        for node in ast.walk(fn):
            if isinstance(node, ast.FunctionDef) and node is not fn:
                for sub in ast.walk(node):
                    nested.add(id(sub))
    call_funcs: Set[int] = set()
    for node in ast.walk(owner.tree):
        if isinstance(node, ast.Call):
            call_funcs.add(id(node.func))
    taken: Set[str] = set()
    for node in ast.walk(owner.tree):
        if id(node) in call_funcs and id(node) not in nested:
            continue
        if isinstance(node, ast.Attribute) and node.attr in known:
            taken.add(node.attr)
        elif isinstance(node, ast.Name) and node.id in known:
            taken.add(node.id)
    return frozenset(taken)


_HIDING = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
           ast.GeneratorExp, ast.AsyncFunctionDef)


def _repo_modules():
    found = []
    for root in ("src/repro", "examples", "tests"):
        found += glob.glob(os.path.join(REPO, root, "**", "*.py"),
                           recursive=True)
    return sorted(found)


class TestAddressTakenOracle:
    def test_single_pass_covers_the_three_walks(self):
        """Superset everywhere (the sound direction), and equal in every
        module without the lambdas, comprehensions or async defs the
        single pass newly counts as unexecuted code."""
        modules = _repo_modules()
        assert len(modules) > 100
        for path in modules:
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            owner = _ModuleAnalysis(tree, "module", path)
            reference = _reference_address_taken(owner)
            assert owner.address_taken >= reference, path
            if not any(isinstance(node, _HIDING)
                       for node in ast.walk(tree)):
                assert owner.address_taken == reference, path


class TestSiteStateClone:
    def test_field_list_is_pinned(self):
        # clone() copies ``ops`` and shares every other field: review it
        # before adding a mutable field.
        assert [f.name for f in dataclasses.fields(SiteState)] == [
            "site_id", "kind", "src_types", "variable", "location",
            "file", "line", "coarse_location", "coarse_line", "chain",
            "ops", "size", "max_size", "growth", "peak", "capacity",
            "capacity_unknown", "escaped", "conditional", "returned",
            "instances", "elem"]

    def test_clone_matches_replace_on_workload_sites(self):
        sites = []
        for path in sorted(glob.glob(os.path.join(
                REPO, "src", "repro", "workloads", "*.py"))):
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            sites += _collect_sites(_ModuleAnalysis(tree, "module", path))
        assert len(sites) > 20
        for site in sites:
            expected = dataclasses.replace(site, ops=dict(site.ops))
            twin = site.clone()
            assert type(twin) is SiteState
            assert vars(twin).keys() == vars(expected).keys()
            for field in dataclasses.fields(SiteState):
                if field.name == "ops":
                    assert twin.ops == site.ops
                    assert twin.ops is not site.ops
                else:
                    assert getattr(twin, field.name) is \
                        getattr(expected, field.name), field.name
            twin.charge("#add")
            assert twin.ops != site.ops
