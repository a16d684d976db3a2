"""The run drivers pause CPython's cyclic collector and restore it.

A simulated run keeps every simulated object alive until the simulated
sweep, so the host collector would only re-scan a heap the simulator
manages itself.  ``profile``, ``plain_run`` and the online driver pause
it from VM construction to the VM's release, through the one helper
:func:`~repro.runtime.host_gc.host_collector_paused`, and leave the
caller's setting as they found it -- after a completed run, an OOM
probe or a raising workload, for a caller with the collector on or off.
"""

from __future__ import annotations

import ast
import gc
import pathlib

import pytest

import repro
from repro.analysis.minheap import min_heap_probe
from repro.collections.wrappers import ChameleonList
from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.core.online import OnlineChameleon
from repro.runtime.host_gc import host_collector_paused
from repro.runtime.vm import add_vm_created_hook, remove_vm_created_hook
from repro.workloads import PmdWorkload
from repro.workloads.base import Workload


class _Boom(Exception):
    pass


class _Observing(Workload):
    """Records the host collector's state inside every run; may raise."""

    name = "observing"

    def __init__(self, fail: bool = False, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fail = fail
        self.seen = []

    def run(self, vm) -> None:
        self.seen.append(gc.isenabled())
        xs = ChameleonList(vm)
        for i in range(20):
            xs.add(i)
        if self.fail:
            raise _Boom("workload failed")


@pytest.fixture(params=[True, False], ids=["caller-on", "caller-off"])
def caller_enabled(request):
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


_DRIVERS = {
    "plain_run": (lambda w: Chameleon().plain_run(w), 1),
    "profile": (lambda w: Chameleon().profile(w), 1),
    "optimize": (lambda w: Chameleon().optimize(w), 3),
    "online": (lambda w: OnlineChameleon().run(w), 2),
}


@pytest.mark.parametrize("driver", _DRIVERS)
def test_completed_run_restores_caller_state(driver, caller_enabled):
    drive, runs = _DRIVERS[driver]
    workload = _Observing()
    drive(workload)
    assert workload.seen == [False] * runs
    assert gc.isenabled() is caller_enabled


@pytest.mark.parametrize("driver", _DRIVERS)
def test_raising_workload_restores_caller_state(driver, caller_enabled):
    drive, _ = _DRIVERS[driver]
    workload = _Observing(fail=True)
    with pytest.raises(_Boom):
        drive(workload)
    assert workload.seen == [False]
    assert gc.isenabled() is caller_enabled


def test_oom_probe_restores_caller_state(caller_enabled):
    workload = PmdWorkload(scale=0.02)
    _, metrics = Chameleon().plain_run(workload.fresh())
    assert gc.isenabled() is caller_enabled
    limit = metrics.peak_live_bytes - 1
    assert min_heap_probe(ToolConfig(), workload, None, limit) is None
    assert gc.isenabled() is caller_enabled


def test_no_host_collection_starts_inside_a_plain_run():
    """From VM construction to its release, with the caller's collector
    on, CPython starts no collection."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    def watch(vm):
        gc.callbacks.append(count)
        release = vm.release

        def release_and_stop_watching():
            release()
            gc.callbacks.remove(count)
        vm.release = release_and_stop_watching

    tool, workload = Chameleon(), PmdWorkload(scale=0.02)
    was_enabled = gc.isenabled()
    gc.enable()
    add_vm_created_hook(watch)
    try:
        tool.plain_run(workload)
    finally:
        remove_vm_created_hook(watch)
        if count in gc.callbacks:
            gc.callbacks.remove(count)
        if not was_enabled:
            gc.disable()
    assert starts == []


def test_nested_pauses_restore_each_level(caller_enabled):
    with host_collector_paused():
        assert not gc.isenabled()
        with host_collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() is caller_enabled


def test_pause_restores_after_an_exception(caller_enabled):
    with pytest.raises(_Boom):
        with host_collector_paused():
            raise _Boom
    assert gc.isenabled() is caller_enabled


def test_only_the_helper_switches_the_host_collector():
    """No module but ``repro.runtime.host_gc`` calls ``gc.disable`` or
    ``gc.enable``, under whatever name it imports ``gc``."""
    root = pathlib.Path(repro.__file__).parent
    callers = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {alias.asname or alias.name
                   for node in ast.walk(tree) if isinstance(node, ast.Import)
                   for alias in node.names if alias.name == "gc"}
        imported = {alias.asname or alias.name
                    for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    and node.module == "gc"
                    for alias in node.names}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in ("disable", "enable")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases) or (
                    isinstance(func, ast.Name)
                    and func.id in imported & {"disable", "enable"}):
                callers.append(f"{path.relative_to(root)}:{node.lineno}")
    assert callers and all(c.startswith("runtime/host_gc.py:")
                           for c in callers), callers
