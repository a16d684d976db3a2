"""Golden: the frames a workload-level collection construction walks.

Context capture is priced per walked stack frame, internal frames
included (``CostModel.context_capture_ticks``), so the wrapper's
construction chain -- ``ChameleonCollection.__init__`` ->
``_resolve_context`` -> ``capture_allocation_context`` -- is part of
the section 5.4 overheads.  Flattening or deepening it would move every
profiled and online tick count; these tests pin it on a real workload
site, ``PmdWorkload._make_children_list``.

The walk length is read off the clock without patching anything on the
stack: two otherwise identical VMs differ only in
``stack_walk_per_frame``, so their tick difference over one
construction is exactly the number of frames walked.
"""

import pytest

from repro.core.chameleon import Chameleon
from repro.core.online import OnlinePolicy
from repro.profiler.profiler import SemanticProfiler
from repro.runtime.costs import CostModel
from repro.runtime.vm import RuntimeEnvironment
from repro.workloads import PmdWorkload

#: _resolve_context and ChameleonCollection.__init__ (library frames,
#: walked but not kept), then the two program frames a depth-2 context
#: keeps: PmdWorkload._make_children_list and this module's caller.
FRAMES_WALKED = 4

#: CostModel().context_capture_ticks(FRAMES_WALKED): 240 + 4 * 30.
CAPTURE_TICKS = 360


def _vm(mode: str, per_frame: int) -> RuntimeEnvironment:
    costs = CostModel().with_overrides(stack_walk_per_frame=per_frame)
    if mode == "plain":
        return RuntimeEnvironment(cost_model=costs, gc_threshold_bytes=None)
    if mode == "profiled":
        return RuntimeEnvironment(cost_model=costs, gc_threshold_bytes=None,
                                  profiler=SemanticProfiler())
    policy = OnlinePolicy(Chameleon().engine)
    vm = RuntimeEnvironment(cost_model=costs, gc_threshold_bytes=None,
                            profiler=SemanticProfiler(), policy=policy)
    policy.bind(vm)
    return vm


def _construction_ticks(mode: str, per_frame: int) -> int:
    vm = _vm(mode, per_frame)
    before = vm.now
    PmdWorkload(scale=0.02)._make_children_list(vm)
    return vm.now - before


@pytest.mark.parametrize("mode", ["profiled", "online"])
def test_children_list_construction_walks_pinned_frames(mode):
    base = _construction_ticks(mode, 30)
    walked = _construction_ticks(mode, 31) - base
    assert walked == FRAMES_WALKED
    assert CostModel().context_capture_ticks(walked) == CAPTURE_TICKS


def test_online_construction_adds_only_the_policy_lookup():
    """The online VM captures exactly as the profiled one does; its only
    extra charge on a first allocation is the policy lookup."""
    profiled = _construction_ticks("profiled", 30)
    online = _construction_ticks("online", 30)
    assert online - profiled == CostModel().policy_lookup


def test_plain_construction_walks_no_frames():
    """No profiler and no policy: nothing captures, nothing is charged
    for a walk."""
    assert _construction_ticks("plain", 31) == _construction_ticks("plain",
                                                                   30)
