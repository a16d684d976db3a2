"""Deterministic cost model: the simulation's substitute for wall-clock time.

The paper's running-time results (Fig. 7, the 35% online-mode slowdown, the
6x PMD slowdown) are *relative* measurements on a real Xeon.  The
simulation replaces the CPU with a virtual clock: every collection
operation, allocation, resize copy, hash computation, stack walk and GC
phase charges a deterministic number of *ticks*.  Relative comparisons
between two runs of the same workload under different collection choices
are then exact and reproducible.

The constants encode the asymmetries the paper's analysis relies on:

* hashing has a per-operation constant that dwarfs a few array compares,
  so small ``ArraySet``/``ArrayMap`` beat ``HashSet``/``HashMap`` (the
  "in the realm of small sizes, constants matter" observation);
* pointer chasing costs more per element than an array scan (locality);
* capturing an allocation context is 1-2 orders of magnitude more
  expensive than a collection operation, which is exactly what makes the
  fully automatic mode slow on allocation-heavy programs (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CostModel", "VMClock"]


@dataclass(frozen=True)
class CostModel:
    """Tick charges for every priced event in the simulated runtime.

    All values are integers; formulas in the collection implementations
    combine them with element counts.  A tick has no absolute meaning --
    only ratios between runs matter.
    """

    # -- memory management ------------------------------------------------
    alloc_base: int = 4
    """Fixed charge per object allocation (header setup, TLAB bump)."""

    alloc_per_16_bytes: int = 1
    """Additional charge per 16 bytes allocated (zeroing)."""

    # -- element-level operations ------------------------------------------
    array_access: int = 1
    """Indexed read/write of an array slot."""

    array_scan_per_element: int = 1
    """Per-element charge of a linear scan (compare + contiguous load)."""

    link_traverse_per_node: int = 3
    """Per-node charge of a pointer chase (compare + dependent load)."""

    compare: int = 1
    """One equality test outside a scan loop."""

    copy_per_element: int = 1
    """Per-element charge of a resize/compaction copy."""

    hash_compute: int = 8
    """Computing an element's hash code."""

    hash_probe: int = 2
    """Probing one hash bucket (index math + load)."""

    entry_link: int = 2
    """Linking/unlinking one chained entry."""

    # -- indirection and instrumentation ------------------------------------
    wrapper_delegation: int = 1
    """The wrapper's virtual dispatch to the backing implementation
    (section 4.1's "small delta in inefficiency")."""

    profile_op: int = 0
    """Per-operation profiling counter update (cheap library counters)."""

    stack_walk_base: int = 240
    """Fixed charge of capturing an allocation context.

    Calibrated so that the fully automatic mode reproduces section 5.4:
    capture costs tens of collection operations, which is negligible for
    op-heavy collections (TVLA, ~35% slowdown) and crushing for massive
    rapid allocation of short-lived ones (PMD, ~6x)."""

    stack_walk_per_frame: int = 30
    """Per-frame charge of capturing an allocation context."""

    policy_lookup: int = 4
    """Online mode: consulting the replacement policy at allocation."""

    def allocation_ticks(self, size: int) -> int:
        """Total charge for allocating ``size`` bytes."""
        return self.alloc_base + (size // 16) * self.alloc_per_16_bytes

    def context_capture_ticks(self, frames: int) -> int:
        """Total charge for capturing a ``frames``-deep context."""
        return self.stack_walk_base + frames * self.stack_walk_per_frame

    def with_overrides(self, **overrides: int) -> "CostModel":
        """A copy of this model with some constants replaced (ablations)."""
        return replace(self, **overrides)


class VMClock:
    """Monotonic virtual clock accumulating tick charges.

    Two charge lanes feed the same total:

    * :meth:`charge` -- the validated call most components use;
    * :attr:`pending` -- a plain integer accumulator the wrappers'
      single-element ops add pre-validated constants to without a call.

    Tick addition is commutative, so batching is unobservable as long as
    ``pending`` is folded in before anyone reads the clock; :attr:`now`
    (the *only* read point) does exactly that, which is what keeps
    batching byte-identical at every GC trigger, tracer callback,
    timeline snapshot and end-of-run report.
    """

    def __init__(self) -> None:
        self.ticks = 0
        #: Batched charges not yet folded into :attr:`ticks`.  Writers
        #: must only ever add non-negative amounts (the VM validates the
        #: wrapper and allocator constants once, at construction).
        self.pending = 0

    def charge(self, ticks: int) -> None:
        """Advance the clock by ``ticks`` (must be non-negative)."""
        if ticks < 0:
            raise ValueError("cannot charge negative ticks")
        self.ticks += ticks

    def flush(self) -> None:
        """Fold any batched :attr:`pending` charges into the total."""
        if self.pending:
            self.ticks += self.pending
            self.pending = 0

    @property
    def now(self) -> int:
        """Current virtual time (flushes batched charges first)."""
        if self.pending:
            self.ticks += self.pending
            self.pending = 0
        return self.ticks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VMClock {self.ticks} ticks (+{self.pending} pending)>"
