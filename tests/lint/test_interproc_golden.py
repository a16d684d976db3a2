"""Golden output of the interval analysis over the repository's sources.

:func:`repro.lint.interproc.analyze_paths` runs once over
``src/repro/workloads``, ``examples`` and ``tests`` (paths relative to
the repository root, as ``repro lint --paths`` is run).  The report is
split per file, and each file with at least one site or finding is
folded into a digest of every :class:`SiteReport` field (with its
verdicts and decisions), every finding and every proposal row.  Next to
the digest sit a readable summary (sites, findings, proposal rows) and
the first hex digits of the input's SHA-256, so an entry whose input
was edited fails as "input edited", not as an analysis change.

A second table pins the same summary for generated programs
(:func:`program`): nested loops, branches, ``try``, early exits, a
summarised helper and a plain list of collections iterated while it is
appended to, at the default statement budget and at a budget small
enough to bail out.  They reach the loop-trial paths the repository's
own sources barely exercise (a trial writing a site its probe did not,
a rerun after a budget-consuming summary).

The golden values were recorded before the analysis shared site state
between abstract states and before :class:`Interval` became a slotted
class, and must never move for an unedited input.  A change that edits
one of these inputs re-records that entry with :func:`record` after
checking that the difference is its own edit.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
from collections import defaultdict

import pytest

from repro.lint.interproc import analyze_paths, analyze_source
from repro.rules.evaluator import Interval

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir,
                                     os.pardir))
PATHS = ("src/repro/workloads", "examples", "tests")


def _plain(value):
    """A JSON-ready, order-stable rendering of a report value."""
    if isinstance(value, Interval):
        return ["interval", repr(value.lo), repr(value.hi)]
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float):
        return repr(value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return [[_plain(k), _plain(v)] for k, v in sorted(value.items())]
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _suggestion(suggestion):
    return {"rule": suggestion.rule.render(),
            "action": suggestion.action.render(),
            "category": _plain(suggestion.category),
            "message": suggestion.message,
            "capacity": suggestion.resolved_capacity,
            "choice": repr(suggestion.to_choice()),
            "secondary": [_suggestion(s) for s in suggestion.secondary]}


def _site(site):
    fields = {f.name: _plain(getattr(site, f.name))
              for f in dataclasses.fields(site)
              if f.name != "decisions"}
    fields["decisions"] = [[src, rule, _suggestion(suggestion)]
                           for src, (rule, suggestion)
                           in sorted(site.decisions.items())]
    fields["context"] = site.context
    fields["ops_total"] = _plain(site.ops_total())
    return fields


def _per_file(report):
    """``{file: {"sites": [...], "findings": [...], "rows": [...]}}``."""
    files = defaultdict(lambda: {"sites": [], "findings": [], "rows": []})
    for site in report.sites:
        files[site.file]["sites"].append(_site(site))
        for src, (rule, suggestion) in sorted(site.decisions.items()):
            files[site.file]["rows"].append(
                [site.location, site.line, src, rule,
                 suggestion.action.render()])
    for finding in report.findings:
        files[finding.span.file]["findings"].append(_plain(finding))
    return files


def _summarise_report(report):
    """``(sites, findings, proposal rows, digest)`` of a one-file report."""
    (entry,) = _per_file(report).values() or [
        {"sites": [], "findings": [], "rows": []}]
    digest = hashlib.sha256(json.dumps(
        entry, sort_keys=True).encode()).hexdigest()[:16]
    return (len(entry["sites"]), len(entry["findings"]),
            len(entry["rows"]), digest)


def _source_sha(path):
    with open(os.path.join(REPO, path), "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:12]


def _summarise(path, entry):
    digest = hashlib.sha256(json.dumps(
        entry, sort_keys=True).encode()).hexdigest()[:16]
    return (_source_sha(path), len(entry["sites"]), len(entry["findings"]),
            len(entry["rows"]), digest)


def record():
    """Today's golden entries (run from anywhere); print to re-record."""
    cwd = os.getcwd()
    os.chdir(REPO)
    try:
        report = analyze_paths(list(PATHS))
    finally:
        os.chdir(cwd)
    return {path: _summarise(path, entry)
            for path, entry in sorted(_per_file(report).items())}


# path: (input sha256[:12], sites, findings, proposal rows, digest)
GOLDEN = {
    'examples/quickstart.py': ('e298f6cb1cdc', 2, 1, 1, '78ee4104deb2c6f0'),
    'src/repro/workloads/bloat.py': ('e2ea44a107ec', 1, 0, 0, '11d00d29863106ed'),
    'src/repro/workloads/dacapo.py': ('578230e98302', 2, 0, 0, '21255a3e883c070c'),
    'src/repro/workloads/findbugs.py': ('e88017e65817', 4, 2, 2, '69c2dbdbe4a3f453'),
    'src/repro/workloads/fop.py': ('9684a4baf542', 3, 0, 0, '54f701a31c0e8ef6'),
    'src/repro/workloads/pmd.py': ('453180d63d68', 5, 0, 0, '64a52243db7fd44b'),
    'src/repro/workloads/soot.py': ('386d4f4ccad3', 3, 0, 0, '639a2c173452a99e'),
    'src/repro/workloads/synthetic.py': ('6528b89c4ea6', 3, 0, 0, '559bc188a4a3fd9b'),
    'src/repro/workloads/tvla.py': ('f642904dfeac', 10, 1, 1, '7860765ce4808bde'),
    'tests/analysis/test_heapdump.py': ('0ee59b75356f', 1, 0, 0, 'bf5a08726dd6563f'),
    'tests/analysis/test_minheap.py': ('7c2c6a0040bc', 2, 1, 1, 'dc6d1880eea42af6'),
    'tests/collections/test_hashing_engine.py': ('c544ee3a24aa', 5, 4, 4, '6581070cd5bfd068'),
    'tests/collections/test_iterators.py': ('32c415e62085', 11, 7, 7, '489fca643689609a'),
    'tests/collections/test_wrappers.py': ('5a8cc84d390f', 42, 27, 27, '0488e23eab23b573'),
    'tests/core/test_context_depth_matters.py': ('62fff173ff2f', 1, 0, 0, '50cc9b2c66a8b47f'),
    'tests/memory/test_operands.py': ('f5a3e38c3532', 12, 4, 4, '2fe4956595b9ae4d'),
    'tests/memory/test_sweep_release.py': ('23200250fb7a', 3, 3, 3, '8b30b02de87310f3'),
    'tests/profiler/test_report.py': ('74f7a88f36ed', 2, 1, 1, '8615fec5d0b2f417'),
    'tests/profiler/test_table1_statistics.py': ('1abdaf66d1d6', 2, 0, 0, '9877964ad7a40670'),
    'tests/runtime/test_host_collector.py': ('f20326aa54df', 1, 1, 1, 'f73891e98be050fd'),
    'tests/verify/test_sanitizer.py': ('84ea1a1a5bad', 2, 0, 0, 'b6a9744a42848134'),
    'tests/verify/test_trace.py': ('d6aa2fc91ab2', 12, 6, 6, '2bb3dec86fb90c51'),
    'tests/verify/test_vm_cores.py': ('d70a7c2702c8', 8, 5, 5, '03f997b867bd7bc9'),
}


@pytest.fixture(scope="module")
def current():
    return record()


@pytest.mark.parametrize("path", sorted(GOLDEN))
def test_golden_sites_findings_and_proposal(path, current):
    sha, *expected = GOLDEN[path]
    assert os.path.exists(os.path.join(REPO, path)), \
        f"{path} is gone: drop its golden entry"
    assert _source_sha(path) == sha, \
        f"input {path} was edited since the golden was recorded"
    assert list(current.get(path, (sha, 0, 0, 0, None))[1:]) == expected


def test_golden_covers_the_workloads_and_examples(current):
    # Every workload and example file with a site or finding is pinned;
    # test files added later are not (their inputs are not fixed).
    pinned = [p for p in current if not p.startswith("tests" + os.sep)]
    assert set(pinned) <= set(GOLDEN)
    assert sum(entry[1] for path, entry in GOLDEN.items()
               if path.startswith("src")) == 31


# ----------------------------------------------------------------------
# Generated programs: shapes the repository's sources rarely show
# ----------------------------------------------------------------------
class _Draw:
    """A tiny linear congruential generator, so the programs are the
    same on every Python version."""

    def __init__(self, seed):
        self.state = seed * 2654435761 % 2 ** 32 + 1

    def below(self, n):
        self.state = (self.state * 1103515245 + 12345) % 2 ** 31
        return (self.state >> 8) % n

    def pick(self, seq):
        return seq[self.below(len(seq))]


_KINDS = {"a": "ChameleonList", "b": "ChameleonSet", "c": "ChameleonMap",
          "d": "ChameleonList"}


def _statement(draw, depth, pad, in_loop, lines):
    var = draw.pick("abcd")
    kind = _KINDS[var]
    roll = draw.below(20)
    if roll < 2:
        lines.append(f"{pad}rows.append(({draw.pick('abcd')}, 1))")
    elif roll < 3:
        lines.append(f"{pad}rows = [{draw.pick('abcd')}]")
    elif roll < 4 and depth:
        lines += [f"{pad}for item in rows:", f"{pad}    x = item[0]",
                  f"{pad}    x.size()"]
        _block(draw, depth - 1, pad + "    ", True, lines)
    elif roll < 8:
        if kind == "ChameleonMap":
            lines.append(f"{pad}{var}.put({draw.below(3)}, "
                         f"{draw.pick(['1', 'a', 'rows'])})")
        else:
            lines.append(f"{pad}{var}.add({draw.pick(['1', 'a', 'rows'])})")
    elif roll < 9:
        lines.append(f"{pad}{var}.{draw.pick(['size', 'clear'])}()")
    elif roll < 10 and kind == "ChameleonList":
        lines += [f"{pad}if {var}.size() > {draw.below(3)}:",
                  f"{pad}    {var}.remove_first()"]
    elif roll < 11:
        lines.append(f"{pad}{var} = {kind}(vm" + draw.pick(
            ["", ", initial_capacity=n", f", copy_from={var}"]) + ")")
    elif roll < 12:
        lines.append(f"{pad}helper({var}, n)")
    elif roll < 13:
        lines.append(f"{pad}opaque({var})")
    elif roll < 14 and in_loop:
        lines += [f"{pad}if f{draw.below(2)}:",
                  f"{pad}    {draw.pick(['break', 'continue', 'return a'])}"]
    elif roll < 16 and depth:
        lines.append(f"{pad}for i in range({draw.pick(['3', 'n', '0'])}):")
        _block(draw, depth - 1, pad + "    ", True, lines)
    elif roll < 17 and depth:
        lines.append(f"{pad}while {draw.pick(['f0', 'a.size() < 5'])}:")
        _block(draw, depth - 1, pad + "    ", True, lines)
    elif roll < 19 and depth:
        lines.append(f"{pad}if {draw.pick(['f0', 'n > 2', 'a.size() > 1'])}:")
        _block(draw, depth - 1, pad + "    ", in_loop, lines)
        lines.append(f"{pad}else:")
        _block(draw, depth - 1, pad + "    ", in_loop, lines)
    elif depth:
        lines.append(f"{pad}try:")
        _block(draw, depth - 1, pad + "    ", in_loop, lines)
        lines.append(f"{pad}except ValueError:")
        _block(draw, depth - 1, pad + "    ", in_loop, lines)
    else:
        lines.append(f"{pad}x = {var}.size()")


def _block(draw, depth, pad, in_loop, lines):
    for _ in range(1 + draw.below(4)):
        _statement(draw, depth, pad, in_loop, lines)


def program(seed):
    """A collection-using module: a helper (summarised at its calls)
    and two roots with nested loops, branches, ``try``, early exits and
    a plain list of collections iterated while it is appended to."""
    draw = _Draw(seed)
    lines = ["from repro.collections import (ChameleonList, ChameleonMap,",
             "                               ChameleonSet)", ""]
    for name, params in (("helper", "a, n"), ("run0", "vm, n, f0, f1"),
                         ("run1", "vm, n, f0, f1")):
        lines.append(f"def {name}({params}):")
        lines += ["    x = None", "    rows = []"]
        for var in "abcd":
            if var != "a" or name != "helper":
                lines.append(f"    {var} = {_KINDS[var]}(vm)")
        _block(draw, 3, "    ", False, lines)
        lines += ["    return a", ""]
    return "\n".join(lines)


def record_generated(seeds, budget):
    return {seed: _summarise_report(analyze_source(
        program(seed), f"generated{seed}.py", budget=budget))
        for seed in seeds}


# (seed, statement budget): (sites, findings, proposal rows, digest).
# Among them are programs whose loop trials write a site their probe
# did not (rerun), restore a shared site the base escaped, and run out
# of budget; the default budget is 80,000.
GENERATED = {
    (0, 80000): (22, 6, 6, '42a5599d27c539ba'),
    (0, 600): (9, 6, 6, '7940daa63956cc0f'),
    (6, 80000): (16, 4, 4, 'e011def060754f77'),
    (6, 600): (12, 4, 4, '8fe3d4041bb4ac73'),
    (15, 80000): (13, 7, 7, 'd9484a26bbfdcc52'),
    (15, 600): (9, 3, 3, '7b77582b6368eeff'),
    (41, 80000): (30, 4, 4, 'e67fe0719a780056'),
    (41, 600): (8, 0, 0, '447ebff364770777'),
    (71, 80000): (18, 5, 5, 'f64313ac3b64230a'),
    (71, 600): (18, 5, 5, 'f64313ac3b64230a'),
    (96, 80000): (18, 12, 12, '4a825b525f5517f7'),
    (96, 600): (10, 4, 4, 'ff0315a683c1d554'),
    (115, 80000): (11, 5, 5, '72247d4a25c758b8'),
    (115, 600): (11, 5, 5, '72247d4a25c758b8'),
    (135, 80000): (62, 12, 12, 'c032f5b2d0b88c37'),
    (135, 600): (0, 0, 0, 'bdb47463dda4db35'),
    (143, 80000): (80, 0, 0, 'd9d381fef9478d00'),
    (143, 600): (0, 0, 0, 'bdb47463dda4db35'),
    (158, 80000): (21, 10, 10, '22edd6b06218e4cd'),
    (158, 600): (21, 10, 10, '22edd6b06218e4cd'),
    (170, 80000): (39, 1, 1, 'e5fb3eab609ce60e'),
    (170, 600): (22, 1, 1, 'd149ce07c4fb8fb5'),
    (195, 80000): (29, 10, 10, '7575ebe6fc233c9e'),
    (195, 600): (29, 10, 10, '7575ebe6fc233c9e'),
    (216, 80000): (25, 11, 11, '15dcabef27d04fe5'),
    (216, 600): (13, 6, 6, '49565133f96983a5'),
    (244, 80000): (43, 6, 6, '365f34303b8dd782'),
    (244, 600): (43, 6, 6, '365f34303b8dd782'),
    (260, 80000): (66, 1, 1, '469c9fb078971109'),
    (260, 600): (0, 0, 0, 'bdb47463dda4db35'),
    (317, 80000): (208, 3, 3, '57f9a3559cf9f160'),
    (317, 600): (0, 0, 0, 'bdb47463dda4db35'),
    (356, 80000): (18, 5, 5, '864cb429d23b2ad6'),
    (356, 600): (18, 5, 5, '864cb429d23b2ad6'),
    (364, 80000): (23, 4, 4, 'bc6a977f79ec5eb7'),
    (364, 600): (0, 0, 0, 'bdb47463dda4db35'),
    (397, 80000): (20, 9, 9, '9baf8b94e63cebb8'),
    (397, 600): (20, 9, 9, '9baf8b94e63cebb8'),
}


@pytest.mark.parametrize("seed, budget", sorted(GENERATED))
def test_golden_generated_programs(seed, budget):
    assert record_generated([seed], budget)[seed] == GENERATED[seed, budget]


if __name__ == "__main__":
    for key, value in record().items():
        print(f"    {key!r}: {value!r},")
