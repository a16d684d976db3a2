"""Mark-sweep collector: reachability, death hooks, and ADT accounting."""

import pytest

from repro.memory.gc import GcCostParameters, MarkSweepGC
from repro.memory.heap import SimHeap
from repro.memory.layout import MemoryModel
from repro.memory.semantic_maps import FootprintTriple


@pytest.fixture
def heap():
    return SimHeap(MemoryModel.for_32bit())


@pytest.fixture
def gc(heap):
    return MarkSweepGC(heap)


class _FakeAdt:
    """Minimal AdtFootprint payload for accounting tests."""

    def __init__(self, live, used, core, internal_ids=(), count=0):
        self._triple = FootprintTriple(live, used, core)
        self._internal = list(internal_ids)
        self._count = count

    def adt_footprint(self):
        return self._triple

    def adt_internal_ids(self):
        return iter(self._internal)

    def adt_element_count(self):
        return self._count


class TestReachability:
    def test_unreachable_objects_are_swept(self, heap, gc):
        root = heap.allocate("Root", 16)
        heap.add_root(root)
        garbage = heap.allocate("Garbage", 16)
        stats = gc.collect()
        assert heap.contains(root.obj_id)
        assert not heap.contains(garbage.obj_id)
        assert stats.freed_objects == 1
        assert stats.freed_bytes == 16

    def test_transitive_closure_is_kept(self, heap, gc):
        a = heap.allocate("A", 8)
        b = heap.allocate("B", 8)
        c = heap.allocate("C", 8)
        heap.add_root(a)
        a.add_ref(b.obj_id)
        b.add_ref(c.obj_id)
        gc.collect()
        assert all(heap.contains(o.obj_id) for o in (a, b, c))

    def test_reference_cycles_are_collected(self, heap, gc):
        """Mark-sweep, unlike refcounting, reclaims cycles."""
        a = heap.allocate("A", 8)
        b = heap.allocate("B", 8)
        a.add_ref(b.obj_id)
        b.add_ref(a.obj_id)
        gc.collect()
        assert len(heap) == 0

    def test_rooted_cycle_survives(self, heap, gc):
        a = heap.allocate("A", 8)
        b = heap.allocate("B", 8)
        a.add_ref(b.obj_id)
        b.add_ref(a.obj_id)
        heap.add_root(a)
        gc.collect()
        assert len(heap) == 2

    def test_dangling_refs_to_swept_objects_are_ignored(self, heap, gc):
        root = heap.allocate("Root", 8)
        heap.add_root(root)
        dead = heap.allocate("Dead", 8)
        gc.collect()  # sweeps `dead`
        root.add_ref(dead.obj_id)  # stale edge
        stats = gc.collect()  # must not crash on the dangling id
        assert stats.live_data == 8


class TestDeathHooks:
    def test_hook_runs_on_sweep(self, heap, gc):
        deaths = []
        obj = heap.allocate("A", 8, on_death=deaths.append)
        gc.collect()
        assert deaths == [obj]

    def test_hook_not_run_while_live(self, heap, gc):
        deaths = []
        obj = heap.allocate("A", 8, on_death=deaths.append)
        heap.add_root(obj)
        gc.collect()
        assert deaths == []


class TestDeathHookReentrancy:
    """Hooks that mutate the heap mid-sweep (the paper's selective-
    finalizer analog) must not corrupt the freed accounting or the
    live-set/free-list split."""

    def test_hook_allocation_survives_the_cycle(self, heap, gc):
        born = []

        def resurrect(obj):
            born.append(heap.allocate("Phoenix", 32))

        heap.allocate("Dying", 16, on_death=resurrect)
        stats = gc.collect()
        assert stats.freed_objects == 1
        assert stats.freed_bytes == 16
        assert len(born) == 1
        assert heap.contains(born[0].obj_id)  # snapshot: not swept now
        assert heap.total_freed_objects == 1
        assert heap.total_freed_bytes == 16

    def test_hook_freeing_another_dead_object_counts_once(self, heap, gc):
        partner_of = {}

        def free_partner(obj):
            partner = partner_of[obj.obj_id]
            if heap.contains(partner.obj_id):
                heap.free(partner)

        a = heap.allocate("A", 16, on_death=free_partner)
        b = heap.allocate("B", 16, on_death=free_partner)
        partner_of[a.obj_id] = b
        partner_of[b.obj_id] = a
        stats = gc.collect()
        assert len(heap) == 0
        # Whichever the sweeper yielded first freed the other via its
        # hook; the sweeper then skips the already-freed one, so each
        # object is accounted exactly once.
        assert stats.freed_objects == 1
        assert stats.freed_bytes == 16
        assert heap.total_freed_objects == 2
        assert heap.total_freed_bytes == 32

    def test_free_list_stays_consistent_across_cycles(self, heap, gc):
        spawned = []

        def spawn(obj):
            spawned.append(heap.allocate("Spawn", 8))

        root = heap.allocate("Root", 8)
        heap.add_root(root)
        for _ in range(3):
            heap.allocate("Dying", 8, on_death=spawn)
        first = gc.collect()
        assert first.freed_objects == 3
        assert all(heap.contains(obj.obj_id) for obj in spawned)
        # The hook-born objects are unreachable; the next cycle reclaims
        # them cleanly -- no stale free-list state survives.
        second = gc.collect()
        assert second.freed_objects == 3
        assert heap.total_freed_objects == 6
        assert heap.contains(root.obj_id)
        assert len(heap) == 1

    def test_collecting_flag_set_only_during_sweep(self, heap, gc):
        seen = []
        heap.allocate("Dying", 8,
                      on_death=lambda obj: seen.append(gc.collecting))
        assert gc.collecting is False
        gc.collect()
        assert seen == [True]
        assert gc.collecting is False


class TestCycleStats:
    def test_live_data_sums_reachable_sizes(self, heap, gc):
        root = heap.allocate("Root", 24)
        heap.add_root(root)
        child = heap.allocate("Child", 40)
        root.add_ref(child.obj_id)
        heap.allocate("Garbage", 100)
        stats = gc.collect()
        assert stats.live_data == 64

    def test_cycle_numbering_and_timeline(self, heap, gc):
        first = gc.collect(tick=10)
        second = gc.collect(tick=20)
        assert (first.cycle, second.cycle) == (1, 2)
        assert gc.timeline.cycle_count == 2
        assert gc.timeline.cycles[0].tick == 10

    def test_type_distribution_for_plain_objects(self, heap, gc):
        root = heap.allocate("Root", 8)
        heap.add_root(root)
        for _ in range(3):
            child = heap.allocate("Widget", 16)
            root.add_ref(child.obj_id)
        stats = gc.collect()
        assert stats.type_distribution["Widget"] == 48
        assert stats.type_distribution["Root"] == 8


class TestAdtAccounting:
    def _anchor_with_internals(self, heap):
        internal = heap.allocate("Object[]", 40)
        anchor = heap.allocate("FakeList", 24)
        anchor.payload = _FakeAdt(64, 48, 16, [internal.obj_id], count=3)
        anchor.add_ref(internal.obj_id)
        anchor.context_id = 5
        heap.add_root(anchor)
        return anchor, internal

    def test_collection_triple_is_attributed(self, heap, gc):
        self._anchor_with_internals(heap)
        stats = gc.collect()
        assert stats.collection_live == 64
        assert stats.collection_used == 48
        assert stats.collection_core == 16
        assert stats.collection_objects == 1

    def test_internals_are_not_double_counted(self, heap, gc):
        self._anchor_with_internals(heap)
        stats = gc.collect()
        # The backing array is folded into the ADT's type bytes, not
        # listed under its own type.
        assert "Object[]" not in stats.type_distribution
        assert stats.type_distribution["FakeList"] == 64

    def test_per_context_slice(self, heap, gc):
        self._anchor_with_internals(heap)
        stats = gc.collect()
        ctx = stats.per_context[5]
        assert (ctx.live, ctx.used, ctx.core) == (64, 48, 16)
        assert ctx.object_count == 1
        assert ctx.potential == 16

    def test_nested_anchor_claimed_by_owner_is_not_reported(self, heap, gc):
        """A wrapper claiming its backing implementation must yield one
        reported ADT, not two (section 4.3.2's semantic attribution)."""
        inner_internal = heap.allocate("Object[]", 40)
        inner = heap.allocate("ArrayList", 24)
        inner.payload = _FakeAdt(64, 48, 16, [inner_internal.obj_id])
        inner.add_ref(inner_internal.obj_id)
        wrapper = heap.allocate("List", 16)
        wrapper.payload = _FakeAdt(
            80, 64, 16, [inner.obj_id, inner_internal.obj_id])
        wrapper.add_ref(inner.obj_id)
        heap.add_root(wrapper)
        stats = gc.collect()
        assert stats.collection_objects == 1
        assert stats.collection_live == 80


class TestGcCosts:
    def test_collection_charges_the_clock(self, heap):
        charges = []
        gc = MarkSweepGC(heap, charge=charges.append,
                         costs=GcCostParameters(base_ticks=100,
                                                mark_ticks_per_object=10,
                                                sweep_ticks_per_object=1))
        root = heap.allocate("Root", 8)
        heap.add_root(root)
        heap.allocate("Garbage", 8)
        gc.collect()
        # base 100 + 1 marked * 10 + 1 swept * 1
        assert charges == [111]
