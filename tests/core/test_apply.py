"""Offline replacement policies (ReplacementMap)."""

import pytest

from repro.collections.wrappers import ChameleonMap
from repro.core.apply import ReplacementMap
from repro.runtime.context import ContextKey
from repro.runtime.vm import ImplementationChoice, RuntimeEnvironment


class TestBasics:
    def test_offline_policies_do_not_require_runtime_capture(self):
        assert ReplacementMap().requires_runtime_capture is False

    def test_empty_policy_chooses_nothing(self, vm):
        policy = ReplacementMap().bind(vm)
        assert policy.choose("HashMap", None) is None
        assert len(policy) == 0

    def test_unbound_policy_chooses_nothing(self):
        policy = ReplacementMap()
        policy.set_choice(ContextKey.synthetic("s"), "HashMap",
                          ImplementationChoice("ArrayMap"))
        assert policy.choose("HashMap", 1) is None

    def test_choice_keyed_by_context_and_type(self, vm):
        policy = ReplacementMap()
        key = ContextKey.synthetic("factory", "caller")
        policy.set_choice(key, "HashMap", ImplementationChoice("ArrayMap"))
        policy.bind(vm)
        context_id = vm.contexts.intern(key)
        other_id = vm.contexts.intern(ContextKey.synthetic("elsewhere"))
        assert policy.choose("HashMap", context_id).impl_name == "ArrayMap"
        assert policy.choose("HashSet", context_id) is None
        assert policy.choose("HashMap", other_id) is None
        assert policy.applied_lookups == 1

    def test_entries_and_render(self):
        policy = ReplacementMap()
        key = ContextKey.synthetic("factory")
        policy.set_choice(key, "HashMap",
                          ImplementationChoice("ArrayMap",
                                               initial_capacity=8))
        entries = policy.entries()
        assert entries == [(key, "HashMap",
                            ImplementationChoice("ArrayMap", 8))]
        text = policy.render()
        assert "ArrayMap" in text and "capacity=8" in text
        assert "empty" in ReplacementMap().render()

    def test_from_suggestions_rejects_negative_top(self):
        # A negative top would apply nothing while a render sliced with
        # the same number lists all but the last suggestion.
        with pytest.raises(ValueError, match="top"):
            ReplacementMap.from_suggestions([], top=-1)
        assert len(ReplacementMap.from_suggestions([], top=0)) == 0


class TestEndToEnd:
    def test_policy_survives_across_vms(self):
        """The point of keying by ContextKey: the same source location
        re-interns to the same key in a fresh VM."""
        def program(vm):
            mapping = ChameleonMap(vm, src_type="HashMap")
            mapping.pin()
            return mapping

        def launch(vm):
            # Shared launcher: both runs reach the allocation through the
            # same stack, as a re-run application would.
            return program(vm)

        # Profile-ish first run just to discover the key.
        from repro.profiler.profiler import SemanticProfiler
        first = RuntimeEnvironment(gc_threshold_bytes=None,
                                   profiler=SemanticProfiler())
        discovered = launch(first)
        key = first.contexts.describe(discovered.context_id)

        policy = ReplacementMap()
        policy.set_choice(key, "HashMap", ImplementationChoice("ArrayMap"))
        second = RuntimeEnvironment(gc_threshold_bytes=None)
        second.policy = policy.bind(second)
        replaced = launch(second)
        assert replaced.impl.IMPL_NAME == "ArrayMap"

    def test_policy_lookup_costs_nothing(self):
        """Offline application models a source edit: the re-run program
        pays no capture or lookup ticks."""
        def program(vm):
            ChameleonMap(vm, src_type="HashMap").pin()

        plain = RuntimeEnvironment(gc_threshold_bytes=None)
        program(plain)

        policy = ReplacementMap()
        with_policy = RuntimeEnvironment(gc_threshold_bytes=None)
        with_policy.policy = policy.bind(with_policy)
        program(with_policy)
        assert with_policy.now == plain.now
