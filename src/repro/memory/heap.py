"""The simulated heap: an explicit object graph with byte-accurate sizes.

Chameleon's VM-side measurements are all statements about the *object
graph*: which objects are reachable at each GC cycle, how many bytes they
occupy, and which of those bytes belong to collection ADTs.  This module
provides that substrate.  Every allocation performed by a workload or by a
collection implementation creates a :class:`HeapObject` in a
:class:`SimHeap`; the mark-sweep collector in :mod:`repro.memory.gc` then
computes reachability and per-cycle statistics over exactly this graph.

Design notes
------------
* Reference edges are reference-counted per *edge multiplicity* (a list may
  legitimately reference the same element twice), so removing one of two
  identical refs keeps the edge alive.
* Objects may carry a ``payload``: the Python-side entity they model (a
  collection implementation, an application record...).  Semantic ADT maps
  use the payload to compute used/core bytes without walking the graph.
* Death hooks replace the paper's selective finalizers: when the sweeper
  frees an object that has an ``on_death`` callback, the callback runs so
  the profiler can fold the instance's ``ObjectContextInfo`` into its
  allocation context (section 4.2 of the paper).
* A freed object -- swept, freed by hand, or still live when its run
  ends -- drops its payload, death hook and semantic-map cache
  (:meth:`HeapObject.release`), so no simulated object keeps a Python
  reference cycle alive for CPython's cyclic collector.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.memory.layout import MemoryModel

__all__ = ["HeapObject", "SimHeap", "OutOfMemoryError"]


class OutOfMemoryError(Exception):
    """Raised when an allocation cannot be satisfied under the heap limit
    even after a full collection."""

    def __init__(self, requested: int, live: int, limit: int) -> None:
        super().__init__(
            f"out of memory: requested {requested} bytes with {live} live "
            f"of {limit} byte limit"
        )
        self.requested = requested
        self.live = live
        self.limit = limit

    def __reduce__(self):
        # The default exception pickling calls ``cls(*self.args)`` with
        # the one formatted message; rebuild from the three fields so the
        # error survives the trip back from a pool worker.
        return type(self), (self.requested, self.live, self.limit)


class HeapObject:
    """One simulated heap cell.

    Attributes:
        obj_id: Dense integer identity, unique within the owning heap.
        type_name: The simulated Java type (``"HashMap"``, ``"Object[]"``,
            ``"LinkedList$Entry"``...).  Semantic maps key off this.
        size: Aligned size in bytes.
        refs: Outgoing reference edges with multiplicity, as a plain
            ``{target_id: count}`` dict.  (A ``collections.Counter`` would
            read more naturally, but its Python-level ``__init__`` and
            ``__missing__`` are measurable at one instance per allocation;
            the two mutators below keep the zero-default semantics by
            hand.)
        payload: Optional Python-side entity this object models.  A
            strong reference while the object is in the store: the
            collector's accounting and the semantic maps read it even
            when the object is reachable only through id edges.  Freeing
            the object drops it (see :meth:`release`), so only death
            hooks may read the payload of a dead object.
        context_id: Allocation-context identity, when tracked.
        on_death: Optional callback invoked by the sweeper when freed.
        sm_version, sm_map: Anchor-classification cache maintained by
            ``SemanticMapRegistry.lookup``: the verdict for this object
            under registry state ``sm_version``.

    Every simulated allocation makes one, so the fields are
    ``__slots__``: no per-object ``__dict__``.  ``RuntimeEnvironment``'s
    allocator stores them by hand, field for field; ``__slots__`` is the
    list it is held to.
    """

    __slots__ = ("obj_id", "type_name", "size", "refs", "payload",
                 "context_id", "on_death", "sm_version", "sm_map")

    def __init__(self, obj_id: int, type_name: str, size: int,
                 refs: Optional[Dict[int, int]] = None,
                 payload: Any = None, context_id: Optional[int] = None,
                 on_death: Optional[Callable[["HeapObject"], None]] = None,
                 ) -> None:
        self.obj_id = obj_id
        self.type_name = type_name
        self.size = size
        self.refs = {} if refs is None else refs
        self.payload = payload
        self.context_id = context_id
        self.on_death = on_death
        self.sm_version = 0
        self.sm_map = None

    def add_ref(self, target_id: int) -> None:
        """Add one reference edge to ``target_id``."""
        refs = self.refs
        refs[target_id] = refs.get(target_id, 0) + 1

    def remove_ref(self, target_id: int) -> None:
        """Drop one reference edge to ``target_id``.

        Raises:
            KeyError: if no such edge exists -- an edge-accounting bug in
                the caller that must not pass silently.
        """
        count = self.refs.get(target_id, 0)
        if count <= 0:
            raise KeyError(f"object #{self.obj_id} holds no ref to #{target_id}")
        if count == 1:
            del self.refs[target_id]
        else:
            self.refs[target_id] = count - 1

    def clear_refs(self) -> None:
        """Drop every outgoing edge (used when a structure is discarded)."""
        self.refs.clear()

    def release(self) -> None:
        """Drop what this object holds on the Python side: its payload,
        its death hook and its cached semantic-map verdict.

        The one rule for what a freed object lets go of, applied by the
        sweep after a dead object's hook has run (:meth:`SimHeap.sweep_dead`
        stores the same four fields inline), by :meth:`SimHeap.free`
        and by :meth:`SimHeap.release` at the end of a run.  A
        collection's wrapper and its heap object, and an implementation
        and its anchor, point at each other through the payload; dropping
        it breaks that cycle, so the collection's Python graph is freed
        by reference counting instead of by CPython's cyclic collector.
        Id, type, size, refs and context id are kept.  Version 0 is never
        a registry version, so the next lookup classifies the object
        afresh.
        """
        self.payload = None
        self.on_death = None
        self.sm_version = 0
        self.sm_map = None

    def __hash__(self) -> int:
        return self.obj_id

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HeapObject #{self.obj_id} {self.type_name} {self.size}B>"


class SimHeap:
    """A growable object graph with GC roots and a byte budget.

    Two kinds of root keep an object alive.  *Named roots*
    (:meth:`add_root`/:meth:`remove_root`: a workload's globals, a
    pinned collection) are pin counts that may be released in any
    order.  The *operand stack* (:attr:`operands`) models the Java
    caller's stack slots: a collection operation pushes each heap-object
    operand before it delegates and pops it in a ``finally``, and a
    collection under construction holds its impl's anchor there until
    the owner adopts it (or cuts the stack back if building raised), so
    the stack is strictly last-in-first-out and empty between
    operations.  Marking seeds from both (:meth:`root_ids`).

    The heap does not collect by itself; :class:`repro.memory.gc.MarkSweepGC`
    owns the mark/sweep logic.  The heap *does* know its occupancy so the
    runtime can decide when a collection is needed and when to declare an
    :class:`OutOfMemoryError` (which is how the minimal-heap experiments of
    Fig. 6 are driven).
    """

    def __init__(self, model: Optional[MemoryModel] = None,
                 limit: Optional[int] = None) -> None:
        self.model = model or MemoryModel.for_32bit()
        self.limit = limit
        self._objects: Dict[int, HeapObject] = {}
        # Root pin counts, {obj_id: count}; a plain dict for the same
        # reason HeapObject.refs is one (see its docstring).
        self._roots: Dict[int, int] = {}
        # In-flight operands: a plain list, so a pin is one C-level
        # append and its release one pop.
        self.operands: List[HeapObject] = []
        self._next_id = 1
        # Monotonic accounting across the whole run.
        self.total_allocated_bytes = 0
        self.total_allocated_objects = 0
        self.total_freed_bytes = 0
        self.total_freed_objects = 0

    # ------------------------------------------------------------------
    # Allocation and the object store
    # ------------------------------------------------------------------
    def allocate(self, type_name: str, size: int, *, payload: Any = None,
                 context_id: Optional[int] = None,
                 on_death: Optional[Callable[[HeapObject], None]] = None,
                 ) -> HeapObject:
        """Allocate an object of ``size`` aligned bytes.

        The caller is expected to have produced ``size`` from the heap's
        :class:`MemoryModel`; the heap aligns defensively anyway so
        accounting invariants hold even for hand-written sizes.
        """
        if size < 0:
            raise ValueError("allocation size cannot be negative")
        size = self.model.align(size)
        obj = HeapObject(self._next_id, type_name, size,
                         payload=payload, context_id=context_id,
                         on_death=on_death)
        self._next_id += 1
        self._objects[obj.obj_id] = obj
        self.total_allocated_bytes += size
        self.total_allocated_objects += 1
        return obj

    def free(self, obj: HeapObject) -> None:
        """Remove ``obj`` from the store, account it as freed and release
        it (:meth:`HeapObject.release`) without running its death hook.

        The collector frees through :meth:`sweep_dead`; this is for
        tests and for death hooks that free another object mid-sweep.
        """
        del self._objects[obj.obj_id]
        self.total_freed_bytes += obj.size
        self.total_freed_objects += 1
        obj.release()

    def get(self, obj_id: int) -> HeapObject:
        """Look up a live object by id."""
        return self._objects[obj_id]

    def contains(self, obj_id: int) -> bool:
        """Whether ``obj_id`` is currently in the store (i.e. not swept)."""
        return obj_id in self._objects

    def objects(self) -> Iterator[HeapObject]:
        """Iterate over every object currently in the store."""
        return iter(self._objects.values())

    def ids(self):
        """A live view of every object id currently in the store."""
        return self._objects.keys()

    @property
    def high_water_id(self) -> int:
        """The next object id to be assigned.

        Every id ever allocated is strictly below this boundary, which
        lets observers (e.g. the heap sanitizer) distinguish objects that
        existed before a GC cycle from ones allocated mid-sweep by death
        hooks.
        """
        return self._next_id

    def sweep_dead(self, marked: "set[int]",
                   keep: Optional["set[int]"] = None,
                   ) -> Iterator[HeapObject]:
        """Partition the store into the live set and the free list.

        ``marked`` (plus the optional ``keep`` set, e.g. a tenured
        generation) names the survivors; everything else is popped from
        the store, accounted as freed, and yielded to the caller -- the
        sweeper runs death hooks and per-cycle statistics over the yielded
        free list.  The dead ids are computed with one C-level set
        difference instead of a Python-level scan over every object, so
        sweep cost tracks the garbage, not the heap.

        Release contract: once the caller resumes the generator after
        a dead object (its death hook has run, its statistics are
        counted), the object is released as :meth:`HeapObject.release`
        releases it (inlined here: no call per dead object): its
        payload, death hook and semantic-map verdict are dropped, so
        the swept collection's Python graph is freed by reference
        counting.  Death hooks still see the payload; a caller that
        keeps a yielded object must not read it afterwards.

        Reentrancy: the partition is a snapshot.  A death hook that
        *allocates* adds to the live store and is never swept this cycle;
        a hook that *frees* a not-yet-yielded dead object simply causes
        that object to be skipped here (it was already accounted by
        :meth:`free`), so ``total_freed_*`` counts every object exactly
        once.
        """
        dead_ids = self._objects.keys() - marked
        if keep:
            dead_ids -= keep
        pop = self._objects.pop
        for obj_id in dead_ids:
            obj = pop(obj_id, None)
            if obj is None:
                continue  # freed by a reentrant death hook
            self.total_freed_bytes += obj.size
            self.total_freed_objects += 1
            yield obj
            obj.payload = None
            obj.on_death = None
            obj.sm_version = 0
            obj.sm_map = None

    def release(self) -> None:
        """End-of-run release: every object still in the store is
        released as the sweep releases a dead one
        (:meth:`HeapObject.release`).

        Ids, types, sizes, refs, roots and the accounting totals are
        kept, so the finished heap can still be marked and summarised.
        """
        for obj in self._objects.values():
            obj.release()

    def __len__(self) -> int:
        return len(self._objects)

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def add_root(self, obj: HeapObject) -> None:
        """Pin ``obj`` as a named GC root (a static or long-lived local).

        For an operand held only for the span of one operation, push it
        on :attr:`operands` instead.
        """
        roots = self._roots
        roots[obj.obj_id] = roots.get(obj.obj_id, 0) + 1

    def remove_root(self, obj: HeapObject) -> None:
        """Unpin one root registration of ``obj``."""
        count = self._roots.get(obj.obj_id, 0)
        if count <= 0:
            raise KeyError(f"object #{obj.obj_id} is not a root")
        if count == 1:
            del self._roots[obj.obj_id]
        else:
            self._roots[obj.obj_id] = count - 1

    def root_ids(self) -> Iterator[int]:
        """Iterate over the ids of the current root set: the named roots,
        then the operands not already among them, each id once."""
        ids = list(self._roots)
        ids.extend(obj.obj_id for obj in self.operands)
        return iter(dict.fromkeys(ids))

    def is_root(self, obj: HeapObject) -> bool:
        """Whether ``obj`` is currently a named root or an operand."""
        return obj.obj_id in self._roots or obj in self.operands

    # ------------------------------------------------------------------
    # Occupancy
    # ------------------------------------------------------------------
    @property
    def occupied_bytes(self) -> int:
        """Bytes held by every not-yet-swept object (live or garbage)."""
        return self.total_allocated_bytes - self.total_freed_bytes
