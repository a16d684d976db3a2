#!/usr/bin/env python3
"""Extending Chameleon: custom implementations, custom rules, custom
semantic maps.

The paper's tool is parametric in all three directions (sections 3.2,
3.3, 4.2): users can register their own collection implementations, write
their own selection rules in the Fig. 4 language, and describe custom
(non-library) collection classes to the collection-aware GC with semantic
maps.  This example does all three:

1. registers a ``CompactIntList`` implementation (an ``IntArray`` variant
   with a tighter growth curve);
2. writes a rule in the DSL that selects it for integer-heavy lists;
3. registers a custom semantic map for an HSQLDB-style row store so the
   GC can attribute its bytes (the paper's section 5.1 remark).

Run with::

    python examples/custom_collections.py
"""

from repro import Chameleon, RuntimeEnvironment, SemanticProfiler
from repro.collections import (ChameleonList, CollectionKind, IntArrayImpl,
                               default_registry)
from repro.memory.semantic_maps import FootprintTriple, SemanticMap
from repro.profiler.report import build_report
from repro.rules.builtin import builtin_rules
from repro.rules.engine import RuleEngine
from repro.rules.suggestions import RuleCategory
from repro.rules.builtin import RuleSpec


# ---------------------------------------------------------------------------
# 1. A custom implementation
# ---------------------------------------------------------------------------
class CompactIntListImpl(IntArrayImpl):
    """An ``int[]`` list that grows by 25% instead of 50%."""

    IMPL_NAME = "CompactIntList"
    DEFAULT_CAPACITY = 4

    def _ensure_capacity(self, needed: int) -> None:
        if needed > self.capacity:
            self._grow_to(max((self.capacity * 5) // 4 + 1, needed))


# ---------------------------------------------------------------------------
# 3. A custom semantic map for a non-library collection class
# ---------------------------------------------------------------------------
class RowStoreSemanticMap(SemanticMap):
    """Describes an HSQLDB-style row store to the collector: header
    object + slot array, rows as elements."""

    def matches(self, obj):
        return obj.type_name == "RowStore"

    def footprint(self, obj):
        heap = obj.payload  # the SimHeap, stashed at allocation below
        slots = next(heap.get(ref) for ref in obj.refs)
        rows = len(slots.refs)
        live = obj.size + slots.size
        used = obj.size + min(
            slots.size,
            heap.model.align(heap.model.array_header_bytes
                             + rows * heap.model.pointer_bytes))
        core = heap.model.core_size(rows) if rows else 0
        return FootprintTriple(live, used, min(core, used))

    def internal_ids(self, obj):
        return iter(obj.refs.keys())

    def element_count(self, obj):
        heap = obj.payload
        slots = next(heap.get(ref) for ref in obj.refs)
        return len(slots.refs)


def main() -> None:
    registry = default_registry()
    if not registry.supports("CompactIntList", CollectionKind.LIST):
        registry.register("CompactIntList", CompactIntListImpl,
                          [CollectionKind.LIST])

    # ------------------------------------------------------------------
    # 2. A custom rule in the Fig. 4 language
    # ------------------------------------------------------------------
    custom_rule = RuleSpec.parse(
        "int-heavy-list",
        "ArrayList : #add > INT_HEAVY & maxSize > 8 -> CompactIntList",
        RuleCategory.SPACE,
        "integer-only list: primitive storage avoids boxing entirely",
        requires_stable_size=True, space_gated=True)
    rules = [custom_rule] + builtin_rules()
    engine = RuleEngine(rules=rules, constants={"INT_HEAVY": 8.0},
                        min_potential_bytes=64)

    vm = RuntimeEnvironment(profiler=SemanticProfiler())

    # An integer-heavy application context.
    def sensor_buffer():
        return ChameleonList(vm, src_type="ArrayList")

    for _ in range(20):
        buffer = sensor_buffer()
        buffer.pin()
        for sample in range(32):
            buffer.add(sample)

    # An HSQLDB-style custom row store, visible to the GC only through
    # the registered semantic map.
    vm.semantic_maps.register("RowStore", RowStoreSemanticMap())
    store = vm.allocate("RowStore",
                        vm.model.object_size(ref_fields=1, int_fields=2),
                        payload=vm.heap)
    vm.add_root(store)
    slots = vm.allocate("Object[]", vm.model.ref_array_size(64))
    store.add_ref(slots.obj_id)
    for _ in range(20):
        row = vm.allocate("Row", vm.model.object_size(ref_fields=3))
        slots.add_ref(row.obj_id)

    vm.finish()
    report = build_report(vm.profiler, vm.timeline, vm.contexts)

    print("=" * 72)
    print("Custom rule in action")
    print("=" * 72)
    suggestions = engine.evaluate(report)
    for rank, suggestion in enumerate(suggestions, start=1):
        print(suggestion.render(rank))
    assert any(s.action.impl_name == "CompactIntList" for s in suggestions)

    print()
    print("=" * 72)
    print("Custom semantic map: the GC now attributes the row store")
    print("=" * 72)
    last_cycle = vm.timeline.cycles[-1]
    row_store_bytes = last_cycle.type_distribution.get("RowStore", 0)
    print(f"RowStore ADT live bytes (per the custom map): "
          f"{row_store_bytes}")
    print(f"total collection live bytes this cycle:       "
          f"{last_cycle.collection_live}")
    assert row_store_bytes > 0

    print("\nBoth extensions worked.")


if __name__ == "__main__":
    main()
