"""Tool configuration."""

import pytest

from repro.core.config import ToolConfig
from repro.memory.layout import MemoryModel
from repro.profiler.stability import StabilityPolicy
from repro.runtime.costs import CostModel


class TestDefaults:
    def test_paper_defaults(self):
        config = ToolConfig()
        assert config.context_depth == 2           # "usually of depth 2 or 3"
        assert config.sampling_rate == 1
        assert config.memory_model.name == "32-bit"
        assert config.online_retrofit_live is False
        assert config.top_contexts_to_apply is None

    def test_independent_instances(self):
        a, b = ToolConfig(), ToolConfig()
        a.constants["X"] = 1.0
        assert "X" not in b.constants


class TestValidation:
    def test_sampling_rate(self):
        with pytest.raises(ValueError):
            ToolConfig(sampling_rate=0)

    def test_online_decide_after(self):
        with pytest.raises(ValueError):
            ToolConfig(online_decide_after=0)

    def test_vm_core(self):
        """The op pipeline is no longer selectable: a caller still
        passing the retired knob fails loudly."""
        with pytest.raises(TypeError):
            ToolConfig(vm_core="reference")


class TestFingerprint:
    """The fingerprint is the session-cache key component: stable for
    equal configs, different whenever any field changes."""

    # One changed value per ToolConfig field, each differing from the
    # default, so the loop below proves every field is covered by the
    # digest.
    CHANGED = {
        "constants": {"SMALL_SIZE": 3.0},
        "stability": StabilityPolicy.permissive(),
        "min_potential_bytes": 2048,
        "context_depth": 5,
        "sampling_rate": 17,
        "sampling_warmup": 99,
        "memory_model": MemoryModel.for_64bit(),
        "cost_model": CostModel().with_overrides(hash_compute=99),
        "gc_threshold_bytes": 4096,
        "online_decide_after": 31,
        "online_retrofit_live": True,
        "top_contexts_to_apply": 5,
    }

    # ToolConfig().fingerprint() while the retired gc_core/vm_core knobs
    # still existed (they were excluded from the digest): sessions cached
    # then must stay cache hits.
    KNOB_ERA_FINGERPRINT = "152cf7ca487b72a1"

    def test_equal_configs_equal_fingerprints(self):
        assert ToolConfig().fingerprint() == ToolConfig().fingerprint()
        assert ToolConfig(context_depth=3).fingerprint() \
            == ToolConfig(context_depth=3).fingerprint()

    def test_fingerprint_is_stable_across_instances(self):
        config = ToolConfig()
        assert config.fingerprint() == config.fingerprint()

    def test_every_field_alters_the_fingerprint(self):
        import dataclasses

        base = ToolConfig().fingerprint()
        field_names = {f.name for f in dataclasses.fields(ToolConfig)}
        assert field_names == set(self.CHANGED), \
            "CHANGED must cover every ToolConfig field"
        for name, value in self.CHANGED.items():
            changed = ToolConfig(**{name: value}).fingerprint()
            assert changed != base, f"field {name!r} not in fingerprint"

    def test_gc_core_does_not_alter_the_fingerprint(self):
        """Removing the GC-core knob kept the digest."""
        assert ToolConfig().fingerprint() == self.KNOB_ERA_FINGERPRINT

    def test_gc_core_validation(self):
        """The collector is no longer selectable: a caller still passing
        the retired knob fails loudly."""
        with pytest.raises(TypeError):
            ToolConfig(gc_core="reference")

    def test_vm_core_does_not_alter_the_fingerprint(self):
        """Removing the op-pipeline knob kept the digest."""
        import dataclasses

        assert "vm_core" not in dataclasses.asdict(ToolConfig())
        assert ToolConfig().fingerprint() == self.KNOB_ERA_FINGERPRINT


class TestPlumbing:
    def test_config_reaches_the_vm(self):
        from repro.core.chameleon import Chameleon

        config = ToolConfig(
            memory_model=MemoryModel.for_64bit(),
            cost_model=CostModel().with_overrides(hash_compute=99),
            gc_threshold_bytes=1234,
            context_depth=3)
        vm = Chameleon(config).make_vm()
        assert vm.model.pointer_bytes == 8
        assert vm.costs.hash_compute == 99
        assert vm.gc_threshold_bytes == 1234
        assert vm.contexts.depth == 3

    def test_constants_reach_the_engine(self):
        from repro.core.chameleon import Chameleon

        tool = Chameleon(ToolConfig(constants={"SMALL_SIZE": 3.0}))
        assert tool.engine.constants["SMALL_SIZE"] == 3.0

    def test_stability_reaches_the_engine(self):
        from repro.core.chameleon import Chameleon

        policy = StabilityPolicy.permissive()
        tool = Chameleon(ToolConfig(stability=policy))
        assert tool.engine.stability is policy

    def test_64bit_model_changes_measured_sizes(self):
        """The layout parameter is live: the same program has a bigger
        footprint under 64-bit headers and pointers."""
        from repro.core.chameleon import Chameleon
        from repro.workloads import TvlaWorkload

        workload = TvlaWorkload(scale=0.1)
        _, small = Chameleon(ToolConfig()).plain_run(workload)
        _, large = Chameleon(ToolConfig(
            memory_model=MemoryModel.for_64bit())).plain_run(workload)
        assert large.peak_live_bytes > 1.3 * small.peak_live_bytes
