"""Allocation-context capture and interning.

Chameleon's central hypothesis (section 3.2.1) is that collections
allocated at the same *allocation context* -- the allocation site plus a
bounded call stack, usually of depth 2 or 3 -- behave similarly.  All
profiling data is keyed by context, and the final reports print contexts
in the ``Type:frame;frame`` format shown in section 2.1.

Two capture mechanisms existed in the paper's tool (Throwable walking and
JVMTI); both boil down to reading the top frames of the caller's stack.
Here capture walks the live Python stack with ``sys._getframe``, skipping
frames that belong to this library itself so a context always names
*application* (workload) code.  Tests and workloads may instead pass an
explicit :class:`ContextKey`, which models factory-provided contexts.

Capture cost is charged by the caller via the cost model; this module only
reports how many frames it walked.  The *simulator's own* wall-clock cost
of capture is memoized: repeat allocations from the same bytecode position
(keyed on ``(id(code object), f_lasti)`` of every walked frame) reuse the
interned :class:`ContextKey` and the recorded walk length, so the string
formatting and module lookups run once per distinct site.  The memo always
returns the same ``frames_walked`` the uncached walk would have reported,
so the virtual-clock charge -- and with it the section 5.4 overhead
results -- is unchanged.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["ContextFrame", "ContextKey", "ContextRegistry",
           "DEFAULT_CONTEXT_DEPTH", "TOPLEVEL_FRAME", "clear_capture_caches"]

DEFAULT_CONTEXT_DEPTH = 2
"""The paper's default partial-context depth ("usually of depth 2 or 3")."""

_INTERNAL_PREFIXES = ("repro.collections", "repro.runtime", "repro.core",
                      "repro.profiler", "repro.memory", "repro.rules",
                      "repro.verify")


@dataclass(frozen=True)
class ContextFrame:
    """One stack frame of an allocation context."""

    location: str
    """Module-qualified function or class-site name."""

    line: int
    """Line number of the call."""

    def render(self) -> str:
        """``location:line`` -- the per-frame piece of report output."""
        return f"{self.location}:{self.line}"


@dataclass(frozen=True)
class ContextKey:
    """An interned allocation context: an ordered tuple of frames.

    The innermost (allocating) frame comes first, matching the report
    format ``HashMap:tvla.util.HashMapFactory:31;tvla.core.base.BaseTVS:50``
    where the factory method precedes its caller.
    """

    frames: Tuple[ContextFrame, ...]

    @property
    def depth(self) -> int:
        """Number of frames retained."""
        return len(self.frames)

    @property
    def site(self) -> Optional[ContextFrame]:
        """The allocation site (innermost frame)."""
        return self.frames[0] if self.frames else None

    def render(self) -> str:
        """Semicolon-joined frame list, as in the paper's suggestions."""
        return ";".join(frame.render() for frame in self.frames)

    @classmethod
    def synthetic(cls, *names: str) -> "ContextKey":
        """A hand-built context for tests/workloads (line numbers 0)."""
        return cls(tuple(ContextFrame(name, 0) for name in names))


def _is_internal(module_name: str) -> bool:
    return any(module_name == prefix or module_name.startswith(prefix + ".")
               for prefix in _INTERNAL_PREFIXES)


TOPLEVEL_FRAME = ContextFrame("<toplevel>", 0)
"""Synthetic site used when the stack holds no application frames.

A capture issued from a thread entry point, a top-level script, or from
inside the library itself still needs a *distinct, stable* context --
interning an empty key would silently alias every such site into one
context.
"""

# id(code) -> is_internal, with the code objects pinned in a side list
# so an id can never be recycled and alias the cached internality bit.
# (Two flat structures instead of one id -> (code, bool) dict: the hot
# capture loop then reads a bare bool per frame.)
_code_cache: Dict[int, bool] = {}
_code_pins: List[Any] = []

# (depth, code_id, f_lasti, code_id, f_lasti, ...) for every frame walked
# -> the (ContextKey, frames_walked) that walk produced.  f_lasti pins the
# exact bytecode position of each call, so two call sites on different
# lines of the same function never collide.
_site_cache: Dict[Tuple[int, ...], Tuple[ContextKey, int]] = {}


def clear_capture_caches() -> None:
    """Drop the capture memo (tests / benchmark hygiene)."""
    _code_cache.clear()
    _code_pins.clear()
    _site_cache.clear()


def capture_context(depth: int = DEFAULT_CONTEXT_DEPTH,
                    skip: int = 1) -> Tuple[ContextKey, int]:
    """Capture the caller's allocation context from the live Python stack.

    Args:
        depth: Number of application frames to retain.
        skip: Frames to discard before filtering (the direct caller by
            default, since it is capture's own invoker inside the library).

    Returns:
        ``(key, frames_walked)`` where ``frames_walked`` counts every frame
        examined, so the caller can charge capture cost proportionally --
        walking past library frames is work even though they are not
        retained, which is part of why capture is expensive.  A stack too
        shallow to skip into, or one with no application frames at all,
        yields the synthetic :data:`TOPLEVEL_FRAME` site rather than
        raising or aliasing distinct sites into an empty key.
    """
    try:
        top = sys._getframe(skip + 1)
    except ValueError:  # shallower than `skip` (thread/script entry point)
        top = None
    # Hot path: build only the memo signature -- one bool lookup and two
    # list appends per frame.  The retained frames are re-walked (from
    # the same, still-live stack) exclusively on a memo miss, i.e. once
    # per distinct site.
    sig = [depth]
    append = sig.append
    internal_of = _code_cache.get
    retained = 0
    frame = top
    while frame is not None and retained < depth:
        code_id = id(frame.f_code)
        append(code_id)
        append(frame.f_lasti)
        internal = internal_of(code_id)
        if internal is None:
            internal = _is_internal(frame.f_globals.get("__name__", "?"))
            _code_cache[code_id] = internal
            _code_pins.append(frame.f_code)
        if not internal:
            retained += 1
        frame = frame.f_back
    cached = _site_cache.get(tuple(sig))
    if cached is not None:
        return cached
    walked = (len(sig) - 1) // 2
    frames = []
    frame = top
    while frame is not None and len(frames) < depth:
        if not _code_cache[id(frame.f_code)]:
            frames.append(ContextFrame(
                f"{frame.f_globals.get('__name__', '?')}"
                f".{frame.f_code.co_name}",
                frame.f_lineno))
        frame = frame.f_back
    result = (ContextKey(tuple(frames) if frames else (TOPLEVEL_FRAME,)),
              walked)
    _site_cache[tuple(sig)] = result
    return result


class ContextRegistry:
    """Interns :class:`ContextKey` values to dense integer ids.

    Dense ids keep per-context statistics in flat dict lookups, which is
    the analog of the paper's native implementation working "directly with
    unique identifiers, without constructing intermediate objects".
    """

    def __init__(self, depth: int = DEFAULT_CONTEXT_DEPTH) -> None:
        self.depth = depth
        self._ids: Dict[ContextKey, int] = {}
        self._keys: Dict[int, ContextKey] = {}
        # id(key) -> (key, context_id) for the key objects
        # intern_captured has seen; each entry pins its key, so an id
        # cannot be recycled for another object while the registry lives.
        self._captured: Dict[int, Tuple[ContextKey, int]] = {}

    def intern(self, key: ContextKey) -> int:
        """Return the dense id for ``key``, assigning one if new."""
        context_id = self._ids.get(key)
        if context_id is None:
            context_id = len(self._ids) + 1
            self._ids[key] = context_id
            self._keys[context_id] = key
        return context_id

    def intern_captured(self, key: ContextKey) -> int:
        """:meth:`intern` for a key :func:`capture_context` returned.

        The capture memo hands back the same :class:`ContextKey` object
        for every allocation at a site, so a repeat is answered by one
        identity lookup instead of hashing the frozen dataclass (a
        Python ``__hash__`` per frame).  Only memo keys come here, so
        the identity table grows with the distinct sites, not with the
        allocations.
        """
        entry = self._captured.get(id(key))
        if entry is not None:
            return entry[1]
        context_id = self.intern(key)
        self._captured[id(key)] = (key, context_id)
        return context_id

    def capture(self, skip: int = 1) -> Tuple[int, int]:
        """Capture and intern the caller's context.

        Returns ``(context_id, frames_walked)``.
        """
        key, walked = capture_context(self.depth, skip=skip + 1)
        return self.intern_captured(key), walked

    def describe(self, context_id: int) -> ContextKey:
        """The :class:`ContextKey` behind a dense id."""
        return self._keys[context_id]

    def ids(self) -> Iterator[int]:
        """All interned context ids."""
        return iter(self._keys.keys())

    def __len__(self) -> int:
        return len(self._ids)
