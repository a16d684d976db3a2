"""Per-instance usage records (the paper's ``ObjectContextInfo``).

While a profiled collection instance is alive, its wrapper updates a small
:class:`ObjectContextInfo`: one counter per operation kind, the maximal
size observed, and the initial capacity.  When the instance dies (GC death
hook, the analog of the paper's selective finalizers) the record is folded
into the :class:`~repro.profiler.context_info.ContextInfo` of its
allocation context and discarded.

The paper stresses that these objects are "usually very small (few words)"
so finalization stays cheap; correspondingly this class is ``__slots__``-ed
and its operation counters are one flat integer array indexed by the dense
operation vocabulary (:data:`~repro.profiler.counters.OPS`), so the
per-operation hot path is a single list-index increment.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.profiler.counters import N_OPS, OPS, Op

__all__ = ["ObjectContextInfo"]


class ObjectContextInfo:
    """Usage profile of one live collection instance."""

    __slots__ = ("context_id", "src_type", "impl_name", "initial_capacity",
                 "counts", "max_size", "final_size", "swap_count",
                 "_registry_key")

    def __init__(self, context_id: int, src_type: str, impl_name: str,
                 initial_capacity: Optional[int] = None) -> None:
        self.context_id = context_id
        self.src_type = src_type
        self.impl_name = impl_name
        self.initial_capacity = initial_capacity
        self.counts: List[int] = [0] * N_OPS
        self.max_size = 0
        self.final_size = 0
        self.swap_count = 0
        self._registry_key: Optional[int] = None

    def record_op(self, op: Op) -> None:
        """Count one operation event."""
        self.counts[op.index] += 1

    @property
    def op_counts(self) -> Dict[Op, int]:
        """Sparse ``{Op: count}`` view of the flat counter array."""
        return {op: count for op, count in zip(OPS, self.counts) if count}

    def record_size(self, size: int) -> None:
        """Track the running and maximal collection size."""
        self.final_size = size
        if size > self.max_size:
            self.max_size = size

    def record_op_size(self, op_index: int, size: int) -> None:
        """Fused :meth:`record_op` + :meth:`record_size` for a mutation.

        The wrappers pre-resolve ``op.index`` to a plain integer, so one
        call updates both the dense counter array and the size watermark
        -- half the call overhead of the separate pair on every recorded
        mutation.
        """
        self.counts[op_index] += 1
        self.final_size = size
        if size > self.max_size:
            self.max_size = size

    def record_copied(self) -> None:
        """This instance was the source of an addAll/putAll/copy-ctor."""
        self.record_op(Op.COPIED)

    def record_swap(self) -> None:
        """The backing implementation was swapped (SizeAdapting/online)."""
        self.swap_count += 1

    def count(self, op: Op) -> int:
        """The recorded count of ``op`` (0 if never seen)."""
        return self.counts[op.index]

    @property
    def total_ops(self) -> int:
        """``#allOps``: every recorded event, including argument-side ones.

        Including ``COPIED`` is what makes the Table 2 temporaries rule
        ``#allOps == #copied`` satisfiable for a nonempty collection that
        was filled by copy-construction and then only ever copied out of.
        """
        return sum(self.counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ObjectContextInfo ctx={self.context_id} {self.src_type}"
                f"/{self.impl_name} maxSize={self.max_size} "
                f"ops={self.total_ops}>")
