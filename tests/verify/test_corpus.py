"""The committed trace corpus replays divergence-free.

``tests/verify/corpus/`` holds traces recorded from the real workloads
(``chameleon-repro fuzz --record``), so the differential check runs the
exact operation mixes the benchmarks perform -- not just the generator's
synthetic distribution.  Every file must load under the current format
and diff clean across the registry with the sanitizer attached.
"""

import json
import pathlib

import pytest

from repro.verify.trace import (TRACE_FORMAT_VERSION, Trace, diff_trace,
                                ops_for_kind)

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))

#: The codec's complete tag vocabulary (encode_value's output surface).
VALUE_TAGS = {"n", "b", "i", "f", "s", "o", "p", "l", "x"}

#: Ops that are structural rather than part of the ADT surface.
STRUCTURAL_OPS = {"init", "gc", "swap", "iter_new", "iter_next"}


def _collect_tags(node, tags):
    if isinstance(node, list):
        if node and isinstance(node[0], str) and node[0] in VALUE_TAGS:
            tags.add(node[0])
        for item in node:
            _collect_tags(item, tags)


def test_corpus_is_present():
    assert len(CORPUS) >= 10
    workloads = {path.name.split("-")[0] for path in CORPUS}
    assert {"tvla", "pmd", "bloat"} <= workloads
    kinds = {path.name.split("-")[1] for path in CORPUS}
    assert kinds == {"list", "set", "map"}


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_file_is_well_formed(path):
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["format"] <= TRACE_FORMAT_VERSION
    trace = Trace.from_dict(data)
    assert len(trace.ops) >= 3
    assert trace.meta["workload"] == path.name.split("-")[0]


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_corpus_trace_diffs_clean(path):
    trace = Trace.from_json(path.read_text(encoding="utf-8"))
    report = diff_trace(trace, sanitize=True)
    assert report.ok, report.summary()
    for result in report.results.values():
        assert not result.violations


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_codec_round_trip_is_byte_exact(path):
    """decode -> encode reproduces the committed bytes exactly, so a
    codec or schema change can never silently orphan the corpus."""
    text = path.read_text(encoding="utf-8")
    trace = Trace.from_json(text)
    assert trace.to_json(indent=2) == text


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.name)
def test_tag_and_op_vocabulary(path):
    """Every committed trace speaks the documented schema: value tags
    from the codec's vocabulary, op names from the recorded surface."""
    trace = Trace.from_json(path.read_text(encoding="utf-8"))
    known_ops = set(ops_for_kind(trace.kind)) | STRUCTURAL_OPS
    tags = set()
    for op in trace.ops:
        assert op[0] in known_ops, op
        _collect_tags(op[1:], tags)
    for result in trace.results:
        _collect_tags(result, tags)
    assert tags <= VALUE_TAGS
    assert tags, "a committed trace should carry at least one value"
