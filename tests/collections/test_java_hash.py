"""Java hash codes: known JLS values, and results that no longer depend
on the interpreter's hash seed."""

import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.collections.base import element_hash, java_hash_code
from repro.runtime.vm import RuntimeEnvironment

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestKnownJavaValues:
    """``hashCode()`` of the boxed type each value models, as a JVM
    prints it (signed), against ``java_hash_code`` (unsigned 32-bit)."""

    @pytest.mark.parametrize("value, java", [
        ("hello", 99162322),                 # "hello".hashCode()
        ("", 0),
        ("Aa", 2112),                        # collides with "BB"
        ("BB", 2112),
        ("\U0001F600", 1772899),             # surrogate pair D83D DE00
        (0, 0),                              # Integer.valueOf(0)
        (7, 7),
        (-1, -1),
        (-(2 ** 31), -(2 ** 31)),            # Integer.MIN_VALUE
        (2 ** 31, -(2 ** 31)),               # Long: (int)(v ^ (v >>> 32))
        (2 ** 40, 256),
        (-(2 ** 40), -256),
        (True, 1231),                        # Boolean.TRUE
        (False, 1237),
        (1.0, 1072693248),                   # Double.valueOf(1.0)
        (0.0, 0),
        (-0.0, -(2 ** 31)),
        (float("nan"), 2146959360),          # canonical NaN bits
        (None, 0),                           # Objects.hashCode(null)
        ((1, 2), 994),                       # List.of(1, 2).hashCode()
    ])
    def test_matches_the_jvm(self, value, java):
        assert java_hash_code(value) == java & 0xFFFFFFFF

    def test_element_hash_keeps_31_bits(self):
        assert element_hash(-1) == 0x7FFFFFFF
        assert element_hash("hello") == 99162322

    def test_pairs_hash_records_by_identity(self):
        vm = RuntimeEnvironment(gc_threshold_bytes=None)
        record = vm.allocate_data("R")
        assert java_hash_code((record, 1)) \
            == (31 * (31 + element_hash(record)) + 1) & 0xFFFFFFFF

    def test_unhashable_kinds_are_refused(self):
        with pytest.raises(TypeError, match="frozenset"):
            java_hash_code(frozenset())


def hash_dependent_observables(n_traces: int = 12, n_ops: int = 200):
    """Replay generated set and map traces on every implementation of
    their kind, with the full GC record: what a seed-salted element hash
    would change from one process to the next."""
    from repro.collections.base import CollectionKind
    from repro.collections.registry import default_registry
    from repro.verify.generate import generate_trace
    from repro.verify.trace import replay_trace

    registry = default_registry()
    out = []
    for adt, kind in (("set", CollectionKind.SET),
                      ("map", CollectionKind.MAP)):
        for seed in range(n_traces):
            trace = generate_trace(adt, seed, n_ops)
            for impl in registry.names_for_kind(kind):
                result = replay_trace(trace, impl, gc_detail=True)
                out.append((adt, seed, impl, result.ticks,
                            repr(result.gc_detail)))
    return out


_TWO_SEED_SCRIPT = textwrap.dedent("""
    import dataclasses
    from repro.core.chameleon import Chameleon
    from repro.workloads import TvlaWorkload
    from tests.collections.test_java_hash import hash_dependent_observables

    for row in hash_dependent_observables():
        print(row)
    session = Chameleon().profile(TvlaWorkload(scale=0.4))
    print(dataclasses.asdict(session.metrics))
    print([dataclasses.astuple(cycle) for cycle in session.vm.timeline.cycles])
""")


def test_results_are_identical_under_two_hash_seeds():
    """Trace replays (ticks and GC record) and ``profile tvla --scale
    0.4`` (ticks and every GC cycle) print the same bytes in two
    interpreters launched under different ``PYTHONHASHSEED``s."""
    outputs = []
    for seed in ("1", "7"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join([str(REPO_ROOT / "src"),
                                              str(REPO_ROOT)])}
        done = subprocess.run([sys.executable, "-c", _TWO_SEED_SCRIPT],
                              capture_output=True, text=True, timeout=300,
                              cwd=str(REPO_ROOT), env=env)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") > 100
    assert outputs[0] == outputs[1]
