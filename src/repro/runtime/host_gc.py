"""CPython's cyclic collector, paused for the length of a simulated run.

Every simulated ``HeapObject``, wrapper, implementation and profiling
record is a GC-tracked Python container that stays alive until the
*simulated* sweep frees it, so while a run allocates, CPython's own
cyclic collector keeps re-scanning a heap the simulator already manages.
It finds nothing to free there: a swept collection and a released VM die
by reference counting (DESIGN.md section 3.5).  The run drivers --
``Chameleon.profile``, ``Chameleon.plain_run`` and the online driver --
therefore run with the host collector paused.

This module is the one place that turns the host collector off.  Code
that drives a VM directly (a trace replay, a bare
:class:`~repro.runtime.vm.RuntimeEnvironment`) keeps whatever setting
its caller chose.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["host_collector_paused"]


@contextmanager
def host_collector_paused() -> Iterator[None]:
    """Disable CPython's cyclic collector for the ``with`` body.

    On exit -- normal or by an exception -- the collector is re-enabled
    only if it was enabled on entry, so nested and successive pauses
    leave the caller's setting as they found it.  Nothing is collected
    on entry or exit.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
