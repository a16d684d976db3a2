"""SimHeap: the object store, reference edges, roots and occupancy."""

import pickle

import pytest

from repro.core.chameleon import Chameleon
from repro.memory.heap import HeapObject, OutOfMemoryError, SimHeap
from repro.memory.layout import MemoryModel
from repro.workloads import TvlaWorkload


@pytest.fixture
def heap():
    return SimHeap(MemoryModel.for_32bit())


class TestAllocation:
    def test_allocate_assigns_dense_ids(self, heap):
        a = heap.allocate("A", 16)
        b = heap.allocate("B", 16)
        assert b.obj_id == a.obj_id + 1

    def test_allocate_aligns_defensively(self, heap):
        obj = heap.allocate("A", 13)
        assert obj.size == 16

    def test_negative_size_rejected(self, heap):
        with pytest.raises(ValueError):
            heap.allocate("A", -1)

    def test_accounting_tracks_bytes_and_objects(self, heap):
        heap.allocate("A", 16)
        heap.allocate("B", 32)
        assert heap.total_allocated_bytes == 48
        assert heap.total_allocated_objects == 2
        assert heap.occupied_bytes == 48

    def test_free_updates_accounting(self, heap):
        obj = heap.allocate("A", 24)
        heap.free(obj)
        assert heap.occupied_bytes == 0
        assert heap.total_freed_objects == 1
        assert not heap.contains(obj.obj_id)

    def test_payload_and_context_attached(self, heap):
        marker = object()
        obj = heap.allocate("A", 8, payload=marker, context_id=7)
        assert obj.payload is marker
        assert obj.context_id == 7

    def test_lookup_by_id(self, heap):
        obj = heap.allocate("A", 8)
        assert heap.get(obj.obj_id) is obj
        assert len(heap) == 1


class TestReferenceEdges:
    def test_add_and_remove_single_edge(self, heap):
        a, b = heap.allocate("A", 8), heap.allocate("B", 8)
        a.add_ref(b.obj_id)
        assert b.obj_id in a.refs
        a.remove_ref(b.obj_id)
        assert b.obj_id not in a.refs

    def test_edge_multiplicity(self, heap):
        """A list may reference the same element twice; removing one
        occurrence must keep the edge."""
        a, b = heap.allocate("A", 8), heap.allocate("B", 8)
        a.add_ref(b.obj_id)
        a.add_ref(b.obj_id)
        a.remove_ref(b.obj_id)
        assert a.refs[b.obj_id] == 1

    def test_remove_missing_edge_is_an_error(self, heap):
        a, b = heap.allocate("A", 8), heap.allocate("B", 8)
        with pytest.raises(KeyError):
            a.remove_ref(b.obj_id)

    def test_clear_refs(self, heap):
        a, b, c = (heap.allocate(t, 8) for t in "ABC")
        a.add_ref(b.obj_id)
        a.add_ref(c.obj_id)
        a.clear_refs()
        assert not a.refs


class TestEdgeEpoch:
    """Edge edits never write the ``HeapObject`` class: a class-attribute
    write invalidates CPython's type attribute cache, which de-optimises
    every ``obj.refs``/``obj.size`` read."""

    def test_edge_edits_never_write_the_class(self, heap):
        before = dict(vars(HeapObject))
        a, b = heap.allocate("A", 8), heap.allocate("B", 8)
        a.add_ref(b.obj_id)
        a.add_ref(b.obj_id)
        a.remove_ref(b.obj_id)
        a.clear_refs()
        Chameleon().plain_run(TvlaWorkload(scale=0.05))
        assert dict(vars(HeapObject)) == before


class TestRoots:
    def test_root_registration(self, heap):
        obj = heap.allocate("A", 8)
        heap.add_root(obj)
        assert heap.is_root(obj)
        assert obj.obj_id in set(heap.root_ids())

    def test_root_multiplicity(self, heap):
        obj = heap.allocate("A", 8)
        heap.add_root(obj)
        heap.add_root(obj)
        heap.remove_root(obj)
        assert heap.is_root(obj)
        heap.remove_root(obj)
        assert not heap.is_root(obj)

    def test_remove_unregistered_root_is_an_error(self, heap):
        obj = heap.allocate("A", 8)
        with pytest.raises(KeyError):
            heap.remove_root(obj)


class TestLimit:
    def test_oom_error_carries_details(self):
        error = OutOfMemoryError(requested=100, live=900, limit=1000)
        assert error.requested == 100
        assert error.live == 900
        assert error.limit == 1000
        assert "out of memory" in str(error)

    def test_oom_error_survives_pickling(self):
        """A pool worker ships the error back pickled; the round trip
        must rebuild it, or the pool's result handler dies."""
        error = OutOfMemoryError(requested=100, live=900, limit=1000)
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is OutOfMemoryError
        assert str(clone) == str(error)
        assert (clone.requested, clone.live, clone.limit) == (100, 900, 1000)
