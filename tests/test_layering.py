"""The verifier is not a dependency of the tool.

Importing the package, the CLI or the workloads must load no
``repro.verify`` module: the ``fuzz`` command and the tests import the
verifier lazily, and nothing else needs it.  Checked in a fresh
interpreter, since this test session has imported the verifier long
before.
"""

import os
import pathlib
import subprocess
import sys

import pytest

import repro

PACKAGE_PARENT = pathlib.Path(repro.__file__).resolve().parents[1]

_SCRIPT = """\
import sys
import {module}
print(sorted(name for name in sys.modules
             if name.split(".")[:2] == ["repro", "verify"]))
"""


@pytest.mark.parametrize("module", ["repro", "repro.cli",
                                    "repro.workloads"])
def test_import_loads_no_verifier_module(module):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT.format(module=module)],
        capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
