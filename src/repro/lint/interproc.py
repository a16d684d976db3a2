"""Layer 2.5: interprocedural interval analysis of collection usage.

The coarse usage linter (:mod:`repro.lint.usage`) emits *qualitative*
facts -- "this list grows inside a loop", "contains() runs in a loop" --
and predicts which Fig. 4 rule might fire.  This module goes further: a
flow- and loop-sensitive abstract interpreter infers **quantitative
intervals** -- per-allocation-site operation counts and maximal sizes --
and feeds them through the *actual* rule engine
(:meth:`repro.rules.engine.RuleEngine.evaluate_intervals`), producing
three-valued verdicts per builtin rule:

* ``must``   -- the rule's condition holds for every concrete run
  (:data:`~repro.rules.evaluator.Tri.TRUE` after refinement), so the
  engine's suggestion becomes a *static* :class:`ReplacementMap`
  proposal;
* ``may``    -- the intervals straddle a threshold; the coarse fact is
  carried to the drift report unconfirmed;
* ``refuted``-- the condition cannot hold
  (:data:`~repro.rules.evaluator.Tri.FALSE`), so a coarse prediction at
  this site is a static false positive.

Abstract domain
---------------
Values are intervals (:class:`~repro.rules.evaluator.Interval`), string
constants, ``None``-ness, site references, and tuples thereof; anything
else is *unknown*.  Every tracked collection allocation gets a
:class:`SiteState` holding per-instance op-count intervals, a running
size interval, and the observed maximal size.  Plain Python lists are
tracked as non-reportable pseudo-sites so accumulator idioms
(``rows.append((_, boxes))`` ... ``for _, boxes in rows:``) keep alias
information flowing through containers.

Loops are executed **once** from a widened base state: the body is first
probed to discover what it mutates, mutated sizes and rebound variables
are widened, per-iteration deltas are collected against zeroed anchors,
and the post-state is reconstructed as ``before + delta * trips`` with
the trip-count interval derived from ``range(...)`` bounds, ``len()``
of tracked values, or ``[0, inf)`` for ``while``.  Widening only ever
*loses precision upward*, which is the soundness guarantee the property
tests pin: concrete op counts and max sizes always fall inside the
inferred intervals.

Calls resolve through per-function summaries (memoized, recursion
falls back to unknown): parameter effects are replayed on argument
sites, escaping parameters escape their arguments, and a factory's
returned site is instantiated at each call site with the call chain
recorded for SARIF ``relatedLocations``.  Escaped sites keep interval
*lower* bounds and widen upper bounds to infinity -- never unsound,
merely vague.
"""

from __future__ import annotations

import ast
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import (Any, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.lint.drift import lines_compatible
from repro.lint.findings import Finding, Related, Severity, Span
from repro.lint.usage import (WRAPPER_KINDS, StaticPrediction,
                              _literal_src_types, _module_name,
                              _NEUTRAL_ATTRS, _NEUTRAL_METHODS,
                              apply_waivers, read_sources,
                              syntax_error_finding)
from repro.rules.evaluator import (EMPTY, Interval, NON_NEGATIVE, TOP, Tri,
                                   point)

__all__ = ["SiteReport", "InterprocReport", "analyze_paths",
           "analyze_source", "REAL_KINDS"]

_INF = math.inf
ZERO = point(0.0)
ONE = point(1.0)
MAYBE = Interval(0.0, 1.0)
UNBOUNDED = Interval(0.0, _INF)

REAL_KINDS = ("list", "set", "map")

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)

#: Default statement budget per analyzed module; exhausting it bails the
#: current root out conservatively instead of hanging on large inputs.
DEFAULT_BUDGET = 80_000

#: Per-kind dense op vocabulary (dsl names); sites report 0 for an op
#: never applied, which is what makes refutation possible at all.
_KIND_DSL_OPS: Dict[str, Tuple[str, ...]] = {
    "list": ("#add", "#add(int)", "#addAll", "#addAll(int)", "#get(int)",
             "#set(int)", "#remove(int)", "#removeFirst", "#remove",
             "#contains", "#indexOf", "#toArray", "#size", "#isEmpty",
             "#clear", "#iterator", "#iterEmpty", "#copied"),
    "set": ("#add", "#addAll", "#remove", "#contains", "#size",
            "#isEmpty", "#clear", "#iterator", "#iterEmpty", "#toArray",
            "#copied"),
    "map": ("#put", "#putAll", "#get(Object)", "#removeKey",
            "#containsKey", "#containsValue", "#size", "#isEmpty",
            "#clear", "#iterator", "#iterEmpty", "#copied"),
}


# ----------------------------------------------------------------------
# Abstract values
# ----------------------------------------------------------------------
class _Ref:
    """A may-alias set of site ids (``maybe_none`` tracks ``x = None``
    joins so ``is None`` tests stay three-valued)."""

    __slots__ = ("sites", "maybe_none")

    def __init__(self, sites: Iterable[int], maybe_none: bool = False):
        self.sites = frozenset(sites)
        self.maybe_none = maybe_none


class _Tup:
    """A tuple of abstract values (alias-through-container tracking)."""

    __slots__ = ("items",)

    def __init__(self, items: Sequence[Any]):
        self.items = tuple(items)


class _IterVal:
    """An iterator over a tracked collection (``site.iterate()``)."""

    __slots__ = ("ref", "element")

    def __init__(self, ref: Optional[_Ref], element: Any = None):
        self.ref = ref
        self.element = element


class _RangeVal:
    """``range(...)`` with interval trip count and element interval."""

    __slots__ = ("trips", "element")

    def __init__(self, trips: Interval, element: Interval):
        self.trips = trips
        self.element = element


class _EnumVal:
    __slots__ = ("inner",)

    def __init__(self, inner: Any):
        self.inner = inner


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.name}>"


_NONE = _Sentinel("None")
_SELF = _Sentinel("self")


def _refs_in(value: Any) -> Set[int]:
    """All site ids reachable through a value."""
    if isinstance(value, _Ref):
        return set(value.sites)
    if isinstance(value, _Tup):
        out: Set[int] = set()
        for item in value.items:
            out |= _refs_in(item)
        return out
    if isinstance(value, _IterVal):
        out = set() if value.ref is None else set(value.ref.sites)
        return out | _refs_in(value.element)
    if isinstance(value, _EnumVal):
        return _refs_in(value.inner)
    return set()


def _val_eq(a: Any, b: Any) -> bool:
    if a is b:
        return True
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, _Ref) and isinstance(b, _Ref):
        return a.sites == b.sites and a.maybe_none == b.maybe_none
    if isinstance(a, _Tup) and isinstance(b, _Tup):
        return (len(a.items) == len(b.items)
                and all(_val_eq(x, y)
                        for x, y in zip(a.items, b.items)))
    return False


def _join_value(a: Any, b: Any) -> Tuple[Any, Set[int]]:
    """Join two abstract values.

    Returns ``(joined, lost_refs)``; when the join degrades to unknown
    any site refs inside either operand are *lost* and the caller must
    escape them (later uses of the variable would silently stop
    attributing operations otherwise).
    """
    if _val_eq(a, b):
        return a, set()
    if a is None or b is None:
        return None, _refs_in(a) | _refs_in(b)
    if isinstance(a, Interval) and isinstance(b, Interval):
        return a.hull(b), set()
    if isinstance(a, _Ref) and isinstance(b, _Ref):
        return _Ref(a.sites | b.sites,
                    a.maybe_none or b.maybe_none), set()
    if isinstance(a, _Ref) and b is _NONE:
        return _Ref(a.sites, True), set()
    if a is _NONE and isinstance(b, _Ref):
        return _Ref(b.sites, True), set()
    if isinstance(a, _Tup) and isinstance(b, _Tup) \
            and len(a.items) == len(b.items):
        items = []
        lost: Set[int] = set()
        for x, y in zip(a.items, b.items):
            joined, sub_lost = _join_value(x, y)
            items.append(joined)
            lost |= sub_lost
        return _Tup(items), lost
    return None, _refs_in(a) | _refs_in(b)


def _join_elem(current: Any, value: Any) -> Tuple[Any, Set[int]]:
    """Join a stored element into a container's element abstraction.

    ``_NONE`` doubles as the no-elements-yet bottom of a fresh
    container, not a stored Python ``None``, so an empty side
    contributes nothing to the join -- falling through to
    :func:`_join_value` would degrade tuples (and anything else
    without a ``_NONE`` special case) to unknown and spuriously
    escape the refs inside them.
    """
    if current is _NONE:
        return value, set()
    if value is _NONE:
        return current, set()
    return _join_value(current, value)


def _value_len(value: Any) -> Interval:
    """``len()`` of an abstract value, as an interval."""
    if isinstance(value, _Tup):
        return point(float(len(value.items)))
    if isinstance(value, str):
        return point(float(len(value)))
    if isinstance(value, _RangeVal):
        return value.trips
    return UNBOUNDED


# ----------------------------------------------------------------------
# Site state
# ----------------------------------------------------------------------
@dataclass
class SiteState:
    """Per-instance interval statistics for one allocation site."""

    site_id: int
    kind: str                      # "list"/"set"/"map"/"pylist"/"param"
    src_types: FrozenSet[str]
    variable: str
    location: str                  # profiler frame: module.function
    file: str
    line: int                      # allocation line (in the factory)
    coarse_location: str           # where the coarse linter sees it
    coarse_line: int
    chain: Tuple[Tuple[str, int, str], ...] = ()
    ops: Dict[str, Interval] = field(default_factory=dict)
    size: Interval = ZERO
    max_size: Interval = ZERO
    growth: Interval = ZERO        # additive size delta since anchor
    peak: float = 0.0              # max of growth.hi since anchor
    capacity: Optional[Interval] = None
    capacity_unknown: bool = False
    escaped: bool = False
    conditional: bool = False
    returned: bool = False
    instances: Interval = ONE
    elem: Any = _NONE              # element abstraction (pylist only)

    def clone(self) -> "SiteState":
        twin = object.__new__(SiteState)
        twin.__dict__.update(self.__dict__)
        twin.ops = dict(self.ops)
        return twin

    def charge(self, dsl: str, count: Interval = ONE,
               exact: bool = True) -> None:
        if not exact:
            count = Interval(0.0, max(0.0, count.hi))
        self.ops[dsl] = self.ops.get(dsl, ZERO) + count

    def grow(self, delta: Interval, exact: bool = True) -> None:
        if not exact:
            delta = Interval(min(0.0, delta.lo), max(0.0, delta.hi))
        self.size = (self.size + delta).clamp_lower()
        self.growth = self.growth + delta
        self.peak = max(self.peak, self.growth.hi)
        self.max_size = Interval(max(self.max_size.lo, self.size.lo),
                                 max(self.max_size.hi, self.size.hi))

    def join_with(self, other: "SiteState") -> "SiteState":
        merged = self.clone()
        keys = set(self.ops) | set(other.ops)
        merged.ops = {k: self.ops.get(k, ZERO).hull(other.ops.get(k, ZERO))
                      for k in keys}
        merged.size = self.size.hull(other.size)
        merged.max_size = self.max_size.hull(other.max_size)
        merged.growth = self.growth.hull(other.growth)
        merged.peak = max(self.peak, other.peak)
        if self.capacity is None or other.capacity is None:
            merged.capacity = self.capacity if other.capacity is None \
                else other.capacity
            if (self.capacity is None) != (other.capacity is None):
                merged.capacity_unknown = True
        else:
            merged.capacity = self.capacity.hull(other.capacity)
        merged.capacity_unknown |= (self.capacity_unknown
                                    or other.capacity_unknown)
        merged.escaped = self.escaped or other.escaped
        merged.conditional = self.conditional or other.conditional
        merged.returned = self.returned or other.returned
        merged.instances = self.instances.hull(other.instances)
        merged.elem, _lost = _join_elem(self.elem, other.elem)
        merged.variable = self.variable or other.variable
        return merged


class _Watch:
    """The pre-existing sites a loop's trial run must not write.

    The widened base of :meth:`_FuncInterp._run_loop` zeroes the
    op/growth anchors only of the sites its probe wrote; the others
    (``frozen``) keep their pre-loop counters, which the trial may read
    but never change.  The copy-on-write step records a write to a
    frozen site in any state derived from the trial in ``hits``, and
    the trial is rerun with that site zeroed too.  A nested loop's
    base and result states belong to the enclosing trial, so a write
    inside the nested loop reaches the enclosing watch through them.
    """

    __slots__ = ("frozen", "hits")

    def __init__(self, frozen: Set[int]):
        self.frozen = frozen
        self.hits: Set[int] = set()


class _State:
    """Abstract program state: environment plus site table.

    Copies share their :class:`SiteState` objects (copy-on-write).
    ``owned`` holds the ids of the sites no other state holds, which
    this state may change in place; every other write goes through
    :meth:`own`, which copies the site on its first write.  ``watch`` is
    the loop trial this state belongs to, if any (:class:`_Watch`).
    """

    __slots__ = ("env", "sites", "dead", "owned", "watch")

    def __init__(self, env: Optional[Dict[str, Any]] = None,
                 sites: Optional[Dict[int, SiteState]] = None,
                 dead: bool = False, watch: Optional[_Watch] = None):
        self.env: Dict[str, Any] = env or {}
        self.sites: Dict[int, SiteState] = sites or {}
        self.dead = dead
        self.owned: Set[int] = set()
        self.watch = watch

    def clone(self) -> "_State":
        # Both copies now share every site, so neither owns one.
        if self.owned:
            self.owned = set()
        return _State(dict(self.env), dict(self.sites), self.dead,
                      self.watch)

    def own(self, sid: int) -> SiteState:
        """The site ``sid``, private to this state and safe to write."""
        site = self.sites[sid]
        if sid not in self.owned:
            watch = self.watch
            if watch is not None and sid in watch.frozen:
                watch.hits.add(sid)
            site = site.clone()
            self.sites[sid] = site
            self.owned.add(sid)
        return site

    def adopt(self, sid: int, site: SiteState) -> None:
        """Add a site object no other state holds."""
        self.sites[sid] = site
        self.owned.add(sid)

    def escape(self, refs: Iterable[int]) -> None:
        for sid in refs:
            site = self.sites.get(sid)
            if site is not None and not site.escaped:
                self.own(sid).escaped = True

    def escape_value(self, value: Any) -> None:
        self.escape(_refs_in(value))

    def join_into(self, other: "_State") -> None:
        """Merge ``other`` (a branch sibling) into this state."""
        if other.dead:
            return
        if self.dead:
            self.env = dict(other.env)
            self.sites = dict(other.sites)
            self.owned = set()
            other.owned = set()
            self.dead = False
            return
        env: Dict[str, Any] = {}
        lost: Set[int] = set()
        for name in set(self.env) | set(other.env):
            if name not in self.env:
                env[name] = other.env[name]
            elif name not in other.env:
                env[name] = self.env[name]
            else:
                env[name], sub = _join_value(self.env[name],
                                             other.env[name])
                lost |= sub
        sites: Dict[int, SiteState] = {}
        owned: Set[int] = set()
        for sid in set(self.sites) | set(other.sites):
            mine, theirs = self.sites.get(sid), other.sites.get(sid)
            if mine is theirs:
                sites[sid] = mine
                continue
            if mine is None or theirs is None:
                only = (mine or theirs).clone()
                only.conditional = True
                only.instances = only.instances.hull(ZERO)
                sites[sid] = only
            else:
                sites[sid] = mine.join_with(theirs)
            owned.add(sid)
        self.env = env
        self.sites = sites
        self.owned = owned
        self.escape(lost)


# ----------------------------------------------------------------------
# Loop flow pre-scan
# ----------------------------------------------------------------------
def _scan_flow(body: Sequence[ast.stmt]) -> bool:
    """Whether the loop body can exit an iteration early (break /
    continue / return / raise), which widens trip and delta lower
    bounds to zero.  Nested function bodies don't count; nested loops
    swallow their own break/continue but not return/raise."""

    def scan(stmts: Sequence[ast.stmt], top: bool) -> bool:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue
            if isinstance(stmt, (ast.Return, ast.Raise)):
                return True
            if top and isinstance(stmt, (ast.Break, ast.Continue)):
                return True
            inner_top = top and not isinstance(stmt, (ast.For, ast.While))
            for attr in ("body", "orelse", "finalbody"):
                sub = getattr(stmt, attr, None)
                if sub and scan(sub, inner_top):
                    return True
            for handler in getattr(stmt, "handlers", []) or []:
                if scan(handler.body, inner_top):
                    return True
        return False

    return scan(body, True)


class _Bailout(Exception):
    """Raised when the statement budget for a module is exhausted."""


# ----------------------------------------------------------------------
# Function summaries
# ----------------------------------------------------------------------
@dataclass
class _Summary:
    """Memoized effect summary of one module-level function/method."""

    qualname: str
    param_names: List[str]
    param_sites: Dict[str, int]
    final: _State
    # ('site', sid) | ('value', value) | ('none',) | ('unknown',)
    returns: Tuple[Any, ...]
    ret_refs: Set[int]


class _ModuleAnalysis:
    """Call-graph, constants and summaries for one Python module."""

    def __init__(self, tree: ast.Module, module: str, path: str,
                 budget: int = DEFAULT_BUDGET):
        self.tree = tree
        self.module = module
        self.path = path
        self.budget = budget
        self.functions: Dict[str, ast.FunctionDef] = {}
        self.classes: Dict[str, Dict[str, ast.FunctionDef]] = {}
        self.module_consts: Dict[str, Optional[ast.expr]] = {}
        self.class_consts: Dict[str, Dict[str, Optional[ast.expr]]] = {}
        self.next_site_id = 1
        # Insertion-ordered (a dict, not a set) so rollback() can drop
        # the entries a discarded loop trial added.
        self.used_summaries: Dict[Tuple[Optional[str], str], None] = {}
        self._summaries: Dict[Tuple[Optional[str], str],
                              Optional[_Summary]] = {}
        self._in_progress: Set[Tuple[Optional[str], str]] = set()
        self._collect()
        self._prescan()

    # -- collection ----------------------------------------------------
    def _record_const(self, table: Dict[str, Optional[ast.expr]],
                      name: str, value: ast.expr) -> None:
        prior = table.get(name)
        if name not in table:
            table[name] = value
        elif prior is not None and ast.dump(prior) != ast.dump(value):
            table[name] = None          # conflicting rebinds: poisoned

    def _collect(self) -> None:
        for stmt in self.tree.body:
            if isinstance(stmt, ast.FunctionDef):
                self.functions[stmt.name] = stmt
            elif isinstance(stmt, ast.ClassDef):
                methods: Dict[str, ast.FunctionDef] = {}
                consts: Dict[str, Optional[ast.expr]] = {}
                for sub in stmt.body:
                    if isinstance(sub, ast.FunctionDef):
                        methods[sub.name] = sub
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            if isinstance(target, ast.Name):
                                self._record_const(consts, target.id,
                                                   sub.value)
                self.classes[stmt.name] = methods
                self.class_consts[stmt.name] = consts
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self._record_const(self.module_consts,
                                           target.id, stmt.value)

    def _prescan(self) -> None:
        """One traversal of the module for three facts the interpreter
        needs before it runs.

        * ``self.<attr> = ...`` assignments anywhere in a method are
          recorded as constants of its class.
        * ``root_names`` -- every name used in a modeled function: a
          module-level collection they name can be mutated through the
          global namespace.
        * ``address_taken`` -- function/method names whose call sites
          the analysis cannot enumerate: referenced as *values* rather
          than called directly (stored in tables, returned as
          callbacks), or referenced at all inside code the interpreter
          does not execute -- bodies of defs it does not model (nested
          and async defs), lambdas, and the elements, targets and
          conditions of comprehensions (their iterables are evaluated).
          Whatever such a function returns may be used arbitrarily by
          code the analysis never sees.
        """
        known: Set[str] = set(self.functions)
        roots: Dict[int, Optional[Dict[str, Optional[ast.expr]]]] = {
            id(fn): None for fn in self.functions.values()}
        for cls, methods in self.classes.items():
            known.update(methods)
            for fn in methods.values():
                roots[id(fn)] = self.class_consts[cls]
        taken: Set[str] = set()
        root_names: Set[str] = set()
        # (node, inside unexecuted code, is a Call's callee, inside a
        #  modeled function, that method's class constants)
        stack: List[Tuple[ast.AST, bool, bool, bool, Any]] = [
            (self.tree, False, False, False, None)]
        while stack:
            node, hidden, callee, in_root, consts = stack.pop()
            if isinstance(node, ast.Name):
                if in_root:
                    root_names.add(node.id)
                if node.id in known and (hidden or not callee):
                    taken.add(node.id)
                continue                # its one child is the load/store ctx
            if isinstance(node, ast.Attribute):
                if node.attr in known and (hidden or not callee):
                    taken.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if id(node) in roots:
                    in_root, consts = True, roots[id(node)]
                else:
                    hidden = True
            elif isinstance(node, ast.Lambda):
                hidden = True
            elif isinstance(node, ast.Assign) and consts is not None:
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self._record_const(consts, target.attr, node.value)
            executed: Optional[Sequence[ast.AST]] = None
            if isinstance(node, _COMPREHENSIONS):
                executed = node.generators
            elif isinstance(node, ast.comprehension):
                executed = (node.iter,)
            func = node.func if isinstance(node, ast.Call) else None
            for child in ast.iter_child_nodes(node):
                stack.append((child,
                              hidden or (executed is not None
                                         and child not in executed),
                              child is func, in_root, consts))
        self.address_taken: FrozenSet[str] = frozenset(taken)
        self.root_names: FrozenSet[str] = frozenset(root_names)

    # -- ids / budget --------------------------------------------------
    def alloc_site_id(self) -> int:
        sid = self.next_site_id
        self.next_site_id += 1
        return sid

    def reset_site_counter(self, mark: int) -> None:
        self.next_site_id = mark

    def tick(self) -> None:
        self.budget -= 1
        if self.budget < 0:
            raise _Bailout()

    def checkpoint(self) -> Tuple[int, int, int]:
        return (self.budget, len(self._summaries), len(self.used_summaries))

    def rollback(self, mark: Tuple[int, int, int]) -> None:
        """Forget the work done since ``checkpoint()``: its statement
        budget and the summaries it computed and applied, so a rerun
        spends and records exactly what one run would."""
        self.budget, summaries, used = mark
        for key in list(self._summaries)[summaries:]:
            del self._summaries[key]
        for key in list(self.used_summaries)[used:]:
            del self.used_summaries[key]

    # -- constants -----------------------------------------------------
    def const_value(self, name: str,
                    seen: FrozenSet[Tuple[str, str]] = frozenset()) -> Any:
        key = ("", name)
        if key in seen:
            return None
        node = self.module_consts.get(name)
        if node is None:
            return None
        return self.eval_const(node, None, seen | {key})

    def class_const(self, cls: Optional[str], attr: str,
                    seen: FrozenSet[Tuple[str, str]] = frozenset()) -> Any:
        if attr == "manual_fixes":
            # The lint models the *unfixed* program: that is the build
            # the profiler observes, and the one replacement proposals
            # target (mirrors `_capacity_is_set`'s convention).
            return point(0.0)
        if cls is None:
            return None
        key = (cls, attr)
        if key in seen:
            return None
        node = self.class_consts.get(cls, {}).get(attr)
        if node is None:
            return None
        return self.eval_const(node, cls, seen | {key})

    def eval_const(self, node: ast.expr, cls: Optional[str],
                   seen: FrozenSet[Tuple[str, str]] = frozenset()) -> Any:
        """Best-effort constant evaluation outside any function state."""
        if isinstance(node, ast.Constant):
            return _const_to_value(node.value)
        if isinstance(node, ast.Name):
            return self.const_value(node.id, seen)
        if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "self":
            return self.class_const(cls, node.attr, seen)
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub):
            operand = self.eval_const(node.operand, cls, seen)
            if isinstance(operand, Interval):
                return ZERO - operand
            return None
        if isinstance(node, ast.BinOp):
            left = self.eval_const(node.left, cls, seen)
            right = self.eval_const(node.right, cls, seen)
            return _binop(node.op, left, right)
        if isinstance(node, ast.IfExp):
            test = self.eval_const(node.test, cls, seen)
            truth = _truth(test)
            if truth is Tri.TRUE:
                return self.eval_const(node.body, cls, seen)
            if truth is Tri.FALSE:
                return self.eval_const(node.orelse, cls, seen)
            a = self.eval_const(node.body, cls, seen)
            b = self.eval_const(node.orelse, cls, seen)
            joined, _lost = _join_value(a, b)
            return joined
        if isinstance(node, ast.Tuple):
            return _Tup([self.eval_const(e, cls, seen)
                         for e in node.elts])
        return None

    # -- summaries -----------------------------------------------------
    def summary(self, cls: Optional[str], name: str,
                kinds: Tuple[Optional[str], ...] = (),
                ) -> Optional[_Summary]:
        """The callee's effect summary, specialised to the ADT kinds of
        its collection-typed arguments (``kinds`` aligns with the full
        positional parameter list; ``None`` entries stay opaque).
        Specialisation is what lets a factory/helper charge its
        parameter's ops precisely instead of escaping the argument."""
        key = (cls, name, kinds)
        if key in self._summaries:
            return self._summaries[key]
        if key in self._in_progress:
            return None                 # recursion: unknown call
        node = (self.classes.get(cls, {}).get(name) if cls is not None
                else self.functions.get(name))
        if node is None:
            return None
        self._in_progress.add(key)
        try:
            interp = _FuncInterp(self, cls, name, node, root=False,
                                 param_kinds=kinds)
            summ = interp.summarize()
        except _Bailout:
            raise
        except RecursionError:
            summ = None
        finally:
            self._in_progress.discard(key)
        self._summaries[key] = summ
        return summ

    def iter_roots(self):
        for name, node in self.functions.items():
            yield (None, name, node)
        for cls, methods in self.classes.items():
            for name, node in methods.items():
                yield (cls, name, node)


def _const_to_value(raw: Any) -> Any:
    if raw is None:
        return _NONE
    if isinstance(raw, bool):
        return point(1.0 if raw else 0.0)
    if isinstance(raw, (int, float)):
        return point(float(raw))
    if isinstance(raw, str):
        return raw
    return None


def _truth(value: Any) -> Tri:
    """Three-valued truthiness of an abstract value."""
    if isinstance(value, Interval):
        if value.is_empty:
            return Tri.UNKNOWN
        if value.lo > 0.0 or value.hi < 0.0:
            return Tri.TRUE
        if value.is_point:
            return Tri.FALSE            # the point 0
        return Tri.UNKNOWN
    if value is _NONE:
        return Tri.FALSE
    if isinstance(value, str):
        return Tri.TRUE if value else Tri.FALSE
    if isinstance(value, _Tup):
        return Tri.TRUE if value.items else Tri.FALSE
    return Tri.UNKNOWN


def _binop(op: ast.operator, a: Any, b: Any) -> Any:
    """Interval arithmetic for the operators loop bounds flow through."""
    if not isinstance(a, Interval) or not isinstance(b, Interval):
        return None
    if isinstance(op, ast.Add):
        return a + b
    if isinstance(op, ast.Sub):
        return a - b
    if isinstance(op, ast.Mult):
        return a * b
    if isinstance(op, (ast.Div, ast.FloorDiv)):
        if b.is_point and b.lo > 0.0:
            quotient = Interval(a.lo / b.lo, a.hi / b.lo)
            if isinstance(op, ast.FloorDiv):
                return Interval(math.floor(quotient.lo)
                                if not math.isinf(quotient.lo)
                                else quotient.lo,
                                math.floor(quotient.hi)
                                if not math.isinf(quotient.hi)
                                else quotient.hi)
            return quotient
        return None
    if isinstance(op, ast.Mod):
        if b.is_point and b.lo > 0.0:
            c = b.lo
            if a.is_point and not math.isinf(a.lo):
                return point(float(a.lo % c))
            if a.lo >= 0.0:
                return Interval(0.0, c - 1.0)
        return None
    return None


def _cmp_tri(op: ast.cmpop, a: Interval, b: Interval) -> Tri:
    if a.is_empty or b.is_empty:
        return Tri.UNKNOWN
    if isinstance(op, ast.Lt):
        if a.hi < b.lo:
            return Tri.TRUE
        if a.lo >= b.hi:
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(op, ast.LtE):
        if a.hi <= b.lo:
            return Tri.TRUE
        if a.lo > b.hi:
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(op, ast.Gt):
        return _cmp_tri(ast.Lt(), b, a)
    if isinstance(op, ast.GtE):
        return _cmp_tri(ast.LtE(), b, a)
    if isinstance(op, ast.Eq):
        if a.is_point and b.is_point and a.lo == b.lo:
            return Tri.TRUE
        if a.hi < b.lo or b.hi < a.lo:
            return Tri.FALSE
        return Tri.UNKNOWN
    if isinstance(op, ast.NotEq):
        flipped = _cmp_tri(ast.Eq(), a, b)
        if flipped is Tri.TRUE:
            return Tri.FALSE
        if flipped is Tri.FALSE:
            return Tri.TRUE
        return Tri.UNKNOWN
    return Tri.UNKNOWN


def _tri_value(tri: Tri) -> Interval:
    if tri is Tri.TRUE:
        return point(1.0)
    if tri is Tri.FALSE:
        return point(0.0)
    return MAYBE


def _zero_anchor(state: _State, sid: int, widen: bool) -> None:
    """Make site ``sid`` of a loop's widened base a per-iteration
    anchor: counters zeroed, and for a site the probe mutated, the size
    widened to every iteration entry."""
    site = state.own(sid)
    site.ops = {}
    site.growth = ZERO
    site.peak = 0.0
    if widen:
        site.size = UNBOUNDED
        site.max_size = site.max_size.hull(UNBOUNDED)


def _as_load(node: ast.expr) -> ast.expr:
    """An assignment target reused as the read side of ``x op= v``.

    The evaluator never inspects expression contexts, so the Store-ctx
    target can be evaluated directly as a load.
    """
    return node


# ----------------------------------------------------------------------
# The abstract interpreter
# ----------------------------------------------------------------------
class _FuncInterp:
    """Executes one function body over the abstract domain."""

    def __init__(self, owner: _ModuleAnalysis, cls: Optional[str],
                 name: str, node: Optional[ast.FunctionDef],
                 root: bool,
                 param_kinds: Tuple[Optional[str], ...] = ()):
        self.owner = owner
        self.cls = cls
        self.name = name
        self.node = node
        self.root = root
        self.param_kinds = param_kinds
        self.location = f"{owner.module}.{name}"
        self.exit_states: List[Tuple[Any, _State]] = []
        self.raise_states: List[_State] = []
        self._pending_returns: List[Any] = []
        self._loop_depth = 0
        self._cond_depth = 0
        self.param_sites: Dict[str, int] = {}

    # -- entry points --------------------------------------------------
    def _initial_state(self) -> _State:
        state = _State()
        args = self.node.args
        positional = list(args.posonlyargs) + list(args.args)
        for index, arg in enumerate(positional):
            if index == 0 and self.cls is not None \
                    and arg.arg == "self":
                state.env["self"] = _SELF
                continue
            sid = self.owner.alloc_site_id()
            kind = "param"
            if index < len(self.param_kinds) \
                    and self.param_kinds[index] is not None:
                kind = self.param_kinds[index]
            site = SiteState(
                site_id=sid, kind=kind, src_types=frozenset(),
                variable=arg.arg, location=self.location,
                file=self.owner.path, line=self.node.lineno,
                coarse_location=self.location,
                coarse_line=self.node.lineno)
            state.adopt(sid, site)
            state.env[arg.arg] = _Ref({sid})
            self.param_sites[arg.arg] = sid
        # Keyword-only args with evaluable defaults participate too.
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                state.env[arg.arg] = self.owner.eval_const(
                    default, self.cls)
        return state

    def run_root(self) -> _State:
        state = self._initial_state()
        self._run_body(self.node.body, state)
        return self._final_state(state)

    def run_module_body(self, body: Sequence[ast.stmt]) -> _State:
        state = _State()
        stmts = [stmt for stmt in body
                 if not isinstance(stmt, (ast.FunctionDef,
                                          ast.AsyncFunctionDef,
                                          ast.ClassDef))]
        self._run_body(stmts, state)
        return self._final_state(state)

    def summarize(self) -> _Summary:
        state = self._initial_state()
        self._run_body(self.node.body, state)
        final = self._final_state(state)
        returns = self._classify_returns()
        ret_refs: Set[int] = set()
        for value, _st in self.exit_states:
            ret_refs |= _refs_in(value)
        qual = f"{self.cls}.{self.name}" if self.cls else self.name
        return _Summary(qualname=qual,
                        param_names=[a.arg for a in
                                     (list(self.node.args.posonlyargs)
                                      + list(self.node.args.args))],
                        param_sites=dict(self.param_sites),
                        final=final, returns=returns, ret_refs=ret_refs)

    def _final_state(self, fallthrough: _State) -> _State:
        final = fallthrough if not fallthrough.dead else _State(dead=True)
        for _value, st in self.exit_states:
            final.join_into(st)
        for st in self.raise_states:
            final.join_into(st)
        if final.dead:
            final.dead = False
        return final

    def _classify_returns(self) -> Tuple[Any, ...]:
        values = [value for value, _st in self.exit_states]
        if not values:
            return ("none",)
        site_ids: Set[Any] = set()
        for value in values:
            if isinstance(value, _Ref) and len(value.sites) == 1 \
                    and not value.maybe_none:
                site_ids.add(next(iter(value.sites)))
            elif isinstance(value, Interval):
                site_ids.add("interval")
            elif value is _NONE:
                site_ids.add("none")
            else:
                site_ids.add("unknown")
        if len(site_ids) == 1:
            only = next(iter(site_ids))
            if only == "interval":
                hull = values[0]
                for value in values[1:]:
                    hull = hull.hull(value)
                return ("value", hull)
            if only == "none":
                return ("none",)
            if isinstance(only, int):
                return ("site", only)
        return ("unknown",)

    # -- statements ----------------------------------------------------
    def _run_body(self, body: Sequence[ast.stmt], state: _State,
                  loop_exits: Optional[List[_State]] = None) -> None:
        for stmt in body:
            if state.dead:
                break
            self._exec(stmt, state, loop_exits)

    def _exec(self, stmt: ast.stmt, state: _State,
              loop_exits: Optional[List[_State]]) -> None:
        self.owner.tick()
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value, state)
        elif isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, value, state)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, state)
                self._bind(stmt.target, value, state)
        elif isinstance(stmt, ast.AugAssign):
            load = ast.BinOp(left=_as_load(stmt.target), op=stmt.op,
                             right=stmt.value)
            ast.copy_location(load, stmt)
            ast.fix_missing_locations(load)
            value = self._eval(load, state)
            self._bind(stmt.target, value, state)
        elif isinstance(stmt, ast.If):
            self._exec_if(stmt, state, loop_exits)
        elif isinstance(stmt, ast.For):
            self._exec_for(stmt, state)
        elif isinstance(stmt, ast.While):
            self._exec_while(stmt, state)
        elif isinstance(stmt, ast.Return):
            value = (_NONE if stmt.value is None
                     else self._eval(stmt.value, state))
            if self.root and isinstance(value, _Ref):
                for sid in value.sites:
                    site = state.sites.get(sid)
                    if site is not None and not site.returned:
                        state.own(sid).returned = True
            if self._loop_depth > 0:
                self._pending_returns.append(value)
                if loop_exits is not None:
                    loop_exits.append(state.clone())
            else:
                self.exit_states.append((value, state.clone()))
            state.dead = True
        elif isinstance(stmt, (ast.Break, ast.Continue)):
            if loop_exits is not None:
                loop_exits.append(state.clone())
            state.dead = True
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, state)
            if self._loop_depth > 0:
                if loop_exits is not None:
                    loop_exits.append(state.clone())
            else:
                self.raise_states.append(state.clone())
            state.dead = True
        elif isinstance(stmt, ast.Try):
            self._exec_try(stmt, state, loop_exits)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                value = self._eval(item.context_expr, state)
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, value, state)
            self._run_body(stmt.body, state, loop_exits)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are not summarized; any outer tracked value
            # their bodies read could be mutated through the closure.
            self._escape_names(stmt, state)
        elif isinstance(stmt, (ast.ClassDef, ast.Import, ast.ImportFrom,
                               ast.Pass, ast.Global, ast.Nonlocal)):
            pass
        elif isinstance(stmt, ast.Assert):
            self._eval(stmt.test, state)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.env.pop(target.id, None)
        else:
            self._escape_names(stmt, state)

    def _exec_if(self, stmt: ast.If, state: _State,
                 loop_exits: Optional[List[_State]]) -> None:
        truth = _truth(self._eval(stmt.test, state))
        if truth is Tri.TRUE:
            self._run_body(stmt.body, state, loop_exits)
            return
        if truth is Tri.FALSE:
            self._run_body(stmt.orelse, state, loop_exits)
            return
        other = state.clone()
        self._cond_depth += 1
        self._run_body(stmt.body, state, loop_exits)
        self._run_body(stmt.orelse, other, loop_exits)
        self._cond_depth -= 1
        state.join_into(other)

    def _exec_try(self, stmt: ast.Try, state: _State,
                  loop_exits: Optional[List[_State]]) -> None:
        pre = state.clone()
        self._run_body(stmt.body, state, loop_exits)
        # Handler-entry approximation: anywhere between the pre state
        # and the post-body state.  Monotone op counters are covered by
        # the hull; sizes of touched sites are widened because a remove
        # can undo an add mid-body.
        entry = pre.clone()
        entry.join_into(state)
        for sid, before in pre.sites.items():
            after = state.sites.get(sid)
            if after is not None and after is not before \
                    and before.ops != after.ops:
                site = entry.own(sid)
                site.size = Interval(0.0, site.max_size.hi)
        for handler in stmt.handlers:
            branch = entry.clone()
            self._cond_depth += 1
            if handler.name:
                branch.env[handler.name] = None
            self._run_body(handler.body, branch, loop_exits)
            self._cond_depth -= 1
            state.join_into(branch)
        self._run_body(stmt.orelse, state, loop_exits)
        self._run_body(stmt.finalbody, state, loop_exits)

    def _escape_names(self, node: ast.AST, state: _State) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                value = state.env.get(sub.id)
                if value is not None:
                    state.escape_value(value)

    # -- binding -------------------------------------------------------
    def _bind(self, target: ast.expr, value: Any, state: _State) -> None:
        if isinstance(target, ast.Name):
            if isinstance(value, _Ref) and len(value.sites) == 1:
                sid = next(iter(value.sites))
                site = state.sites.get(sid)
                if site is not None and not site.variable:
                    state.own(sid).variable = target.id
            state.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            parts = self._split_iterable(value, len(target.elts), state)
            for elt, part in zip(target.elts, parts):
                if isinstance(elt, ast.Starred):
                    state.escape_value(part)
                    self._bind(elt.value, None, state)
                else:
                    self._bind(elt, part, state)
        elif isinstance(target, ast.Starred):
            state.escape_value(value)
            self._bind(target.value, None, state)
        elif isinstance(target, ast.Attribute):
            # Storing into an object attribute publishes the value.
            self._eval(target.value, state)
            state.escape_value(value)
        elif isinstance(target, ast.Subscript):
            base = self._eval(target.value, state)
            self._eval(target.slice, state)
            if isinstance(base, _Ref):
                stored = False
                for sid in base.sites:
                    site = state.sites.get(sid)
                    if site is not None and site.kind == "pylist":
                        elem, lost = _join_elem(site.elem, value)
                        if elem is not site.elem:
                            state.own(sid).elem = elem
                        state.escape(lost)
                        if not _refs_in(value) <= lost:
                            stored = True
                if not stored:
                    state.escape_value(value)
            else:
                state.escape_value(value)
        else:
            state.escape_value(value)

    def _split_iterable(self, value: Any, count: int,
                        state: _State) -> List[Any]:
        """Destructure ``value`` into ``count`` abstract parts."""
        if isinstance(value, _Tup) and len(value.items) == count:
            return list(value.items)
        if isinstance(value, _EnumVal) and count == 2:
            element = self._element_of(value.inner, state)
            return [NON_NEGATIVE, element]
        state.escape_value(value)
        return [None] * count

    def _element_of(self, value: Any, state: _State) -> Any:
        """The per-iteration element abstraction of an iterable."""
        if isinstance(value, _RangeVal):
            return value.element
        if isinstance(value, _IterVal):
            return value.element
        if isinstance(value, _EnumVal):
            inner = self._element_of(value.inner, state)
            return _Tup([NON_NEGATIVE, inner])
        if isinstance(value, _Tup):
            joined: Any = None
            first = True
            for item in value.items:
                if first:
                    joined, first = item, False
                else:
                    joined, lost = _join_value(joined, item)
                    state.escape(lost)
            return joined if not first else None
        if isinstance(value, _Ref):
            joined = None
            first = True
            for sid in value.sites:
                site = state.sites.get(sid)
                elem = site.elem if site is not None else None
                if first:
                    joined, first = elem, False
                else:
                    joined, lost = _join_value(joined, elem)
                    state.escape(lost)
            if joined is _NONE:
                return None
            return joined
        return None

    # -- expressions ---------------------------------------------------
    def _eval(self, node: ast.expr, state: _State) -> Any:
        self.owner.tick()
        if isinstance(node, ast.Constant):
            return _const_to_value(node.value)
        if isinstance(node, ast.Name):
            if node.id in state.env:
                return state.env[node.id]
            return self.owner.const_value(node.id)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, state)
        if isinstance(node, ast.Call):
            return self._eval_call(node, state)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, state)
            right = self._eval(node.right, state)
            if isinstance(left, Interval) and isinstance(right, Interval):
                return _binop(node.op, left, right)
            state.escape_value(left)
            state.escape_value(right)
            return None
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, state)
            if isinstance(node.op, ast.Not):
                truth = _truth(operand)
                if truth is Tri.TRUE:
                    return point(0.0)
                if truth is Tri.FALSE:
                    return point(1.0)
                return MAYBE
            if isinstance(node.op, ast.USub) \
                    and isinstance(operand, Interval):
                return ZERO - operand
            if isinstance(node.op, ast.UAdd) \
                    and isinstance(operand, Interval):
                return operand
            return None
        if isinstance(node, ast.Compare):
            return self._eval_compare(node, state)
        if isinstance(node, ast.BoolOp):
            truths = [_truth(self._eval(value, state))
                      for value in node.values]
            if isinstance(node.op, ast.And):
                if Tri.FALSE in truths:
                    return point(0.0)
                if all(t is Tri.TRUE for t in truths):
                    return point(1.0)
            else:
                if Tri.TRUE in truths:
                    return point(1.0)
                if all(t is Tri.FALSE for t in truths):
                    return point(0.0)
            return MAYBE
        if isinstance(node, ast.IfExp):
            truth = _truth(self._eval(node.test, state))
            if truth is Tri.TRUE:
                return self._eval(node.body, state)
            if truth is Tri.FALSE:
                return self._eval(node.orelse, state)
            joined, lost = _join_value(self._eval(node.body, state),
                                       self._eval(node.orelse, state))
            state.escape(lost)
            return joined
        if isinstance(node, ast.Tuple):
            return _Tup([self._eval(elt, state) for elt in node.elts])
        if isinstance(node, ast.List):
            return self._alloc_pylist(node, state)
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, state)
            index = self._eval(node.slice, state)
            if isinstance(base, _Tup) and isinstance(index, Interval) \
                    and index.is_point:
                pos = int(index.lo)
                if -len(base.items) <= pos < len(base.items):
                    return base.items[pos]
            if isinstance(base, _Ref):
                return self._element_of(base, state)
            return None
        if isinstance(node, ast.NamedExpr):
            value = self._eval(node.value, state)
            self._bind(node.target, value, state)
            return value
        if isinstance(node, _COMPREHENSIONS):
            for comp in node.generators:
                source = self._eval(comp.iter, state)
                element = self._element_of(source, state)
                state.escape_value(element)
            return None
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    self._eval(sub, state)
            return None
        if isinstance(node, ast.Lambda):
            self._escape_names(node.body, state)
            return None
        if isinstance(node, ast.Starred):
            return self._eval(node.value, state)
        if isinstance(node, (ast.Dict, ast.Set)):
            for sub in ast.iter_child_nodes(node):
                if isinstance(sub, ast.expr):
                    state.escape_value(self._eval(sub, state))
            return None
        self._escape_names(node, state)
        return None

    def _eval_attribute(self, node: ast.Attribute, state: _State) -> Any:
        receiver = self._eval(node.value, state)
        if receiver is _SELF:
            return self.owner.class_const(self.cls, node.attr)
        if isinstance(receiver, _Ref):
            if node.attr in _NEUTRAL_ATTRS:
                return None
            if node.attr in _NEUTRAL_METHODS \
                    or self._method_spec_exists(node.attr, receiver,
                                                state):
                return None     # bare method reference, not a call
            state.escape_value(receiver)
            return None
        return None

    def _method_spec_exists(self, method: str, ref: _Ref,
                            state: _State) -> bool:
        for sid in ref.sites:
            site = state.sites.get(sid)
            if site is None:
                continue
            table = (_PYLIST_METHODS if site.kind == "pylist"
                     else _METHOD_SPECS.get(site.kind, {}))
            if method in table:
                return True
        return False

    def _eval_compare(self, node: ast.Compare, state: _State) -> Any:
        left = self._eval(node.left, state)
        values = [self._eval(cmp, state) for cmp in node.comparators]
        if len(node.ops) != 1:
            return MAYBE
        op, right = node.ops[0], values[0]
        if isinstance(op, (ast.Is, ast.IsNot)):
            tri = Tri.UNKNOWN
            if right is _NONE or (isinstance(node.comparators[0],
                                             ast.Constant)
                                  and node.comparators[0].value is None):
                if isinstance(left, _Ref):
                    tri = Tri.UNKNOWN if left.maybe_none else Tri.FALSE
                elif left is _NONE:
                    tri = Tri.TRUE
                elif left is not None:
                    tri = Tri.FALSE
            if isinstance(op, ast.IsNot) and tri is not Tri.UNKNOWN:
                tri = Tri.TRUE if tri is Tri.FALSE else Tri.FALSE
            return _tri_value(tri)
        if isinstance(left, Interval) and isinstance(right, Interval):
            return _tri_value(_cmp_tri(op, left, right))
        if isinstance(left, str) and isinstance(right, str):
            if isinstance(op, ast.Eq):
                return point(1.0 if left == right else 0.0)
            if isinstance(op, ast.NotEq):
                return point(1.0 if left != right else 0.0)
        return MAYBE

    # -- calls ---------------------------------------------------------
    def _eval_call(self, node: ast.Call, state: _State) -> Any:
        func = node.func
        callee = None
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee in WRAPPER_KINDS:
            return self._alloc_wrapper(node, callee, state)
        if isinstance(func, ast.Name):
            if callee in _BUILTIN_FNS:
                return self._eval_builtin(callee, node, state)
            if callee in self.owner.functions:
                return self._apply_summary(None, callee, node, state,
                                           skip_self=False)
            return self._unknown_call(node, state)
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) \
                    and func.value.id == "self" \
                    and state.env.get("self") is _SELF \
                    and callee in self.owner.classes.get(self.cls or "",
                                                         {}):
                return self._apply_summary(self.cls, callee, node, state,
                                           skip_self=True)
            receiver = self._eval(func.value, state)
            if isinstance(receiver, _Ref):
                return self._apply_method(receiver, callee, node, state)
            return self._unknown_call(node, state)
        self._eval(func, state)
        return self._unknown_call(node, state)

    def _unknown_call(self, node: ast.Call, state: _State) -> Any:
        """Opaque callee: every argument may be mutated or published."""
        for arg in node.args:
            state.escape_value(self._eval(arg, state))
        for kw in node.keywords:
            state.escape_value(self._eval(kw.value, state))
        return None

    # -- allocation ----------------------------------------------------
    def _alloc_wrapper(self, node: ast.Call, wrapper: str,
                       state: _State) -> _Ref:
        kind, default_src = WRAPPER_KINDS[wrapper]
        src_kw = next((kw.value for kw in node.keywords
                       if kw.arg == "src_type"), None)
        src_types = frozenset(_literal_src_types(src_kw, default_src))
        capacity: Optional[Interval] = None
        capacity_unknown = False
        copy_src: Any = None
        for arg in node.args:
            self._eval(arg, state)
        for kw in node.keywords:
            value = self._eval(kw.value, state)
            if kw.arg == "initial_capacity":
                if isinstance(value, Interval):
                    capacity = value
                elif value is not _NONE:
                    capacity_unknown = True
            elif kw.arg == "copy_from":
                copy_src = value
            elif kw.arg in (None, "impl_kwargs"):
                state.escape_value(value)
        sid = self.owner.alloc_site_id()
        site = SiteState(
            site_id=sid, kind=kind, src_types=src_types, variable="",
            location=self.location, file=self.owner.path,
            line=node.lineno, coarse_location=self.location,
            coarse_line=node.lineno, capacity=capacity,
            capacity_unknown=capacity_unknown,
            conditional=self._cond_depth > 0)
        if isinstance(copy_src, _Ref):
            exact = self._exact_ref(copy_src, state)
            length = ZERO
            for src_sid in copy_src.sites:
                if src_sid not in state.sites:
                    continue
                src_site = state.own(src_sid)
                src_site.charge("#copied", ONE, exact)
                length = length.hull(src_site.size)
            if kind == "list":
                site.size = length
            else:
                site.size = Interval(0.0, length.hi)
            site.max_size = site.size
        elif copy_src is not None and copy_src is not _NONE:
            site.size = UNBOUNDED
            site.max_size = UNBOUNDED
            state.escape_value(copy_src)
        state.adopt(sid, site)
        return _Ref({sid})

    def _alloc_pylist(self, node: ast.List, state: _State) -> _Ref:
        elem: Any = _NONE
        first = True
        for elt in node.elts:
            value = self._eval(elt, state)
            if first:
                elem, first = value, False
            else:
                elem, lost = _join_value(elem, value)
                state.escape(lost)
        sid = self.owner.alloc_site_id()
        size = point(float(len(node.elts)))
        site = SiteState(
            site_id=sid, kind="pylist", src_types=frozenset(),
            variable="", location=self.location, file=self.owner.path,
            line=node.lineno, coarse_location=self.location,
            coarse_line=node.lineno, size=size, max_size=size,
            elem=elem, conditional=self._cond_depth > 0)
        state.adopt(sid, site)
        return _Ref({sid})

    # -- tracked-method application ------------------------------------
    @staticmethod
    def _exact_ref(ref: _Ref, state: _State) -> bool:
        if len(ref.sites) != 1 or ref.maybe_none:
            return False
        site = state.sites.get(next(iter(ref.sites)))
        return (site is not None and site.instances.is_point
                and site.instances.lo == 1.0)

    def _apply_method(self, ref: _Ref, method: str, node: ast.Call,
                      state: _State) -> Any:
        args = [self._eval(arg, state) for arg in node.args]
        for kw in node.keywords:
            args.append(self._eval(kw.value, state))
        if method in _NEUTRAL_METHODS:
            return ref if method == "pin" else None
        exact = self._exact_ref(ref, state)
        result: Any = _NONE
        handled = False
        for sid in ref.sites:
            site = state.sites.get(sid)
            if site is None:
                continue
            table = (_PYLIST_METHODS if site.kind == "pylist"
                     else _METHOD_SPECS.get(site.kind, {}))
            spec = table.get(method)
            if spec is None:
                state.escape((sid,))
                for value in args:
                    state.escape_value(value)
                continue
            handled = True
            dsl, size_mode, ret, elem_arg = spec
            if dsl is not None or size_mode is not None:
                site = state.own(sid)
            if dsl is not None:
                site.charge(dsl, ONE, exact)
            self._apply_size(site, size_mode, args, state, exact)
            if elem_arg is not None and elem_arg < len(args):
                elem, lost = _join_elem(site.elem, args[elem_arg])
                if elem is not site.elem:
                    state.own(sid).elem = elem
                state.escape(lost)
            if dsl in ("#addAll", "#addAll(int)", "#putAll") and args:
                source = args[-1] if dsl != "#addAll(int)" else (
                    args[1] if len(args) > 1 else None)
                if isinstance(source, _Ref):
                    src_exact = self._exact_ref(source, state)
                    for src_sid in source.sites:
                        src_site = state.sites.get(src_sid)
                        if src_site is not None \
                                and src_site.kind in REAL_KINDS:
                            state.own(src_sid).charge("#copied", ONE,
                                                      src_exact)
            value = self._method_result(state.sites[sid], ref, ret)
            result, lost = _join_value(result, value) \
                if not (result is _NONE and value is not _NONE) \
                else (value, set())
            state.escape(lost)
        if not handled:
            return None
        return None if result is _NONE else result

    def _apply_size(self, site: SiteState, mode: Optional[str],
                    args: Sequence[Any], state: _State,
                    exact: bool) -> None:
        if mode is None:
            return
        if mode == "+1":
            site.grow(ONE, exact)
        elif mode == "-1":
            site.grow(Interval(-1.0, -1.0), exact)
        elif mode == "[0,1]":
            # Inserting into a provably empty set/map cannot hit an
            # existing key, so it grows by exactly one.
            if site.size.is_point and site.size.lo == 0.0:
                site.grow(ONE, exact)
            else:
                site.grow(MAYBE, exact)
        elif mode == "[-1,0]":
            site.grow(Interval(-1.0, 0.0), exact)
        elif mode in ("+n", "[0,n]"):
            length = UNBOUNDED
            for value in args:
                if isinstance(value, (_Ref, _Tup, _RangeVal)):
                    length = self._length_of(value, state)
                    break
            if mode == "[0,n]":
                length = Interval(0.0, length.hi)
            site.grow(length, exact)
        elif mode == "clear":
            if exact:
                site.grow(ZERO - site.size, exact=True)
                site.size = ZERO
            else:
                site.grow(Interval(-site.size.hi, 0.0), exact=False)

    def _length_of(self, value: Any, state: _State) -> Interval:
        if isinstance(value, _Ref):
            length = EMPTY
            for sid in value.sites:
                site = state.sites.get(sid)
                if site is None:
                    return UNBOUNDED
                length = site.size if length.is_empty \
                    else length.hull(site.size)
            return UNBOUNDED if length.is_empty else length
        return _value_len(value)

    def _method_result(self, site: SiteState, ref: _Ref,
                       ret: Optional[str]) -> Any:
        if ret == "size":
            return site.size
        if ret == "maybe":
            return MAYBE
        if ret == "elem":
            return None if site.elem is _NONE else site.elem
        if ret == "iter":
            element = None if site.elem is _NONE else site.elem
            return _IterVal(_Ref({site.site_id}), element)
        return _NONE

    # -- builtins ------------------------------------------------------
    def _eval_builtin(self, name: str, node: ast.Call,
                      state: _State) -> Any:
        args = [self._eval(arg, state) for arg in node.args]
        for kw in node.keywords:
            self._eval(kw.value, state)
        if name == "len" and len(args) == 1:
            return self._length_of(args[0], state)
        if name == "range" and args:
            return self._make_range(args)
        if name == "enumerate" and args:
            return _EnumVal(args[0])
        if name in ("min", "max") and args:
            if all(isinstance(a, Interval) for a in args):
                if name == "min":
                    return Interval(min(a.lo for a in args),
                                    min(a.hi for a in args))
                return Interval(max(a.lo for a in args),
                                max(a.hi for a in args))
            return None
        if name in ("int", "float", "round") and len(args) == 1 \
                and isinstance(args[0], Interval):
            return args[0]
        if name == "abs" and len(args) == 1 \
                and isinstance(args[0], Interval):
            value = args[0]
            if value.lo >= 0.0:
                return value
            if value.hi <= 0.0:
                return ZERO - value
            return Interval(0.0, max(value.hi, -value.lo))
        if name == "bool" and len(args) == 1:
            return _tri_value(_truth(args[0]))
        if name in ("isinstance", "hasattr", "callable"):
            return MAYBE
        if name == "getattr":
            for value in args:
                state.escape_value(value)
            return None
        if name == "print":
            return _NONE
        # list()/sorted()/sum()/... read their argument without
        # recording wrapper ops and without capturing a mutable alias.
        return None

    @staticmethod
    def _make_range(args: List[Any]) -> _RangeVal:
        if not all(isinstance(a, Interval) for a in args[:3]):
            return _RangeVal(UNBOUNDED, TOP)
        if len(args) == 1:
            n = args[0]
            trips = Interval(max(0.0, n.lo), max(0.0, n.hi))
            return _RangeVal(trips, Interval(0.0, max(0.0, n.hi - 1.0)))
        a, b = args[0], args[1]
        if len(args) == 2:
            span = b - a
            trips = Interval(max(0.0, span.lo), max(0.0, span.hi))
            return _RangeVal(trips,
                             Interval(a.lo, max(a.lo, b.hi - 1.0)))
        c = args[2]
        if c.is_point and c.lo > 0.0:
            step = c.lo
            lo = max(0.0, math.ceil((b.lo - a.hi) / step))
            hi = max(0.0, (math.ceil((b.hi - a.lo) / step)
                           if b.hi != _INF else _INF))
            return _RangeVal(Interval(lo, hi),
                             Interval(a.lo, max(a.lo, b.hi - 1.0)))
        return _RangeVal(UNBOUNDED, a.hull(b))

    # -- summary instantiation -----------------------------------------
    @staticmethod
    def _binding_kind(value: Any, state: _State) -> Optional[str]:
        """The single ADT kind of an argument, or ``None`` if opaque."""
        if not isinstance(value, _Ref) or value.maybe_none:
            return None
        kinds = set()
        for sid in value.sites:
            site = state.sites.get(sid)
            if site is None:
                return None
            kinds.add(site.kind)
        if len(kinds) == 1:
            kind = next(iter(kinds))
            if kind in REAL_KINDS or kind == "pylist":
                return kind
        return None

    def _apply_summary(self, cls: Optional[str], name: str,
                       node: ast.Call, state: _State,
                       skip_self: bool) -> Any:
        positional = [self._eval(arg, state) for arg in node.args]
        by_name: Dict[str, Any] = {}
        for kw in node.keywords:
            value = self._eval(kw.value, state)
            if kw.arg is None:
                state.escape_value(value)
            else:
                by_name[kw.arg] = value
        fn_node = (self.owner.classes.get(cls, {}).get(name)
                   if cls is not None else self.owner.functions.get(name))
        if fn_node is None:
            for value in positional:
                state.escape_value(value)
            for value in by_name.values():
                state.escape_value(value)
            return None
        all_params = [a.arg for a in (list(fn_node.args.posonlyargs)
                                      + list(fn_node.args.args))]
        params = all_params
        if skip_self and params and params[0] == "self":
            params = params[1:]
        binding: Dict[str, Any] = {}
        for pname, value in zip(params, positional):
            binding[pname] = value
        for extra in positional[len(params):]:
            state.escape_value(extra)
        for pname, value in by_name.items():
            if pname in all_params:
                binding[pname] = value
            else:
                state.escape_value(value)
        # Specialise the summary to the ADT kinds of collection args:
        # the callee then tracks its parameter's ops/growth precisely
        # instead of conservatively escaping it.
        kinds = tuple(self._binding_kind(binding.get(pname), state)
                      for pname in all_params)
        summ = self.owner.summary(cls, name, kinds)
        if summ is None:
            for value in positional:
                state.escape_value(value)
            for value in by_name.values():
                state.escape_value(value)
            return None
        self.owner.used_summaries[(cls, name)] = None
        # Replay parameter effects onto the argument sites.
        param_ids = set(summ.param_sites.values())
        idmap: Dict[int, FrozenSet[int]] = {}
        for pname, psid in summ.param_sites.items():
            ps = summ.final.sites.get(psid)
            value = binding.get(pname)
            if isinstance(value, _Ref):
                idmap[psid] = value.sites
            if ps is None:
                continue
            if not isinstance(value, _Ref):
                if value is not None and ps.escaped:
                    state.escape_value(value)
                continue
            exact = self._exact_ref(value, state)
            for sid in value.sites:
                if sid not in state.sites:
                    continue
                site = state.own(sid)
                for dsl, count in ps.ops.items():
                    site.charge(dsl, count, exact)
                pre_hi = site.size.hi
                site.grow(ps.growth, exact)
                if ps.peak > 0.0:
                    cand = pre_hi + max(0.0, ps.peak)
                    site.max_size = Interval(
                        site.max_size.lo, max(site.max_size.hi, cand))
                site.escaped |= ps.escaped
                if ps.elem is not _NONE:
                    site.elem, lost = _join_value(site.elem, None)
                    state.escape(lost)
        # Instantiate sites the callee created.
        for sid, template in summ.final.sites.items():
            if sid in param_ids:
                continue
            new_id = self.owner.alloc_site_id()
            idmap[sid] = frozenset({new_id})
        returned_new: Optional[int] = None
        for sid, template in summ.final.sites.items():
            if sid in param_ids:
                continue
            new_id = next(iter(idmap[sid]))
            site = template.clone()
            site.site_id = new_id
            site.coarse_location = self.location
            site.coarse_line = node.lineno
            site.chain = template.chain + (
                (self.owner.path, node.lineno,
                 f"via call to {summ.qualname}()"),)
            site.conditional |= self._cond_depth > 0
            site.returned = False
            site.elem = self._remap_value(site.elem, idmap, state)
            state.adopt(new_id, site)
            if summ.returns[0] == "site" and summ.returns[1] == sid:
                returned_new = new_id
        tag = summ.returns[0]
        if tag == "site":
            target = summ.returns[1]
            if returned_new is not None:
                return _Ref({returned_new})
            for pname, psid in summ.param_sites.items():
                if psid == target:
                    return binding.get(pname)
            return None
        if tag == "value":
            return summ.returns[1]
        if tag == "none":
            return _NONE
        return None

    def _remap_value(self, value: Any, idmap: Dict[int, FrozenSet[int]],
                     state: _State) -> Any:
        if isinstance(value, _Ref):
            sites: Set[int] = set()
            dropped = False
            for sid in value.sites:
                if sid in idmap:
                    sites |= idmap[sid]
                elif sid in state.sites:
                    sites.add(sid)
                else:
                    dropped = True
            if not sites:
                return None
            if dropped:
                state.escape(sites)
            return _Ref(sites, value.maybe_none)
        if isinstance(value, _Tup):
            return _Tup([self._remap_value(item, idmap, state)
                         for item in value.items])
        return value

    # -- loops ---------------------------------------------------------
    def _exec_for(self, stmt: ast.For, state: _State) -> None:
        iterable = self._eval(stmt.iter, state)
        trips = self._trip_count(iterable, state)
        element = self._element_of(iterable, state)
        iter_sites = _refs_in(iterable)
        self._run_loop(stmt, state, trips, element=element,
                       target=stmt.target, iter_sites=iter_sites)
        if stmt.orelse and not state.dead:
            self._run_body(stmt.orelse, state)

    def _exec_while(self, stmt: ast.While, state: _State) -> None:
        truth = _truth(self._eval(stmt.test, state))
        if truth is Tri.FALSE:
            if stmt.orelse:
                self._run_body(stmt.orelse, state)
            return
        self._run_loop(stmt, state, UNBOUNDED, element=None,
                       target=None, iter_sites=set(),
                       test=stmt.test)
        if not state.dead:
            # The exit check runs once more than the body.
            self._eval(stmt.test, state)
            if stmt.orelse:
                self._run_body(stmt.orelse, state)

    def _trip_count(self, iterable: Any, state: _State) -> Interval:
        if isinstance(iterable, _RangeVal):
            return iterable.trips
        if isinstance(iterable, (_Ref, _Tup, str)):
            length = self._length_of(iterable, state) \
                if isinstance(iterable, _Ref) else _value_len(iterable)
            return Interval(max(0.0, length.lo), max(0.0, length.hi))
        if isinstance(iterable, _IterVal):
            if iterable.ref is not None:
                return self._trip_count(iterable.ref, state)
            return UNBOUNDED
        if isinstance(iterable, _EnumVal):
            return self._trip_count(iterable.inner, state)
        return UNBOUNDED

    def _run_loop(self, stmt: Any, state: _State, trips: Interval,
                  element: Any, target: Optional[ast.expr],
                  iter_sites: Set[int],
                  test: Optional[ast.expr] = None) -> None:
        body = stmt.body
        self._loop_depth += 1
        ret_mark = len(self._pending_returns)
        site_mark = self.owner.next_site_id
        try:
            # 1. Probe: run the body once from the current state to
            # learn what it mutates and which variables it rebinds.
            probe = state.clone()
            probe_exits: List[_State] = []
            self._run_one_body(body, probe, target, element, test,
                               probe_exits)
            mutated, changed_vars = self._diff(state, probe)
            del self._pending_returns[ret_mark:]
            self.owner.reset_site_counter(site_mark)
            had_exit = bool(probe_exits) or _scan_flow(body)
            if mutated & iter_sites:
                trips = UNBOUNDED       # iterating what the body mutates
            target_names = set()
            if target is not None:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        target_names.add(sub.id)

            # 2. Widened base: over-approximates *every* iteration
            # entry.  The op/growth anchors of the sites the probe wrote
            # are zeroed so the trial run yields pure per-iteration
            # deltas; the others stay shared and unzeroed (their delta
            # is zero), and the trial's watch reruns it if it writes one.
            written = {sid for sid, site in state.sites.items()
                       if probe.sites.get(sid) is not site}
            base = state.clone()
            for name in changed_vars - target_names:
                old = base.env.get(name)
                base.escape_value(old)
                base.env[name] = None
            for sid in written:
                _zero_anchor(base, sid, widen=sid in mutated)
            watch = _Watch(set(base.sites) - written)

            # 3. Trials: iterate to a fixpoint on element abstractions
            # (an iteration may read values appended by earlier ones).
            for _attempt in range(3):
                trial, trial_exits = self._run_trial(
                    body, base, watch, target, element, test, ret_mark,
                    site_mark)
                stable = True
                for sid, bsite in list(base.sites.items()):
                    tsite = trial.sites.get(sid)
                    if tsite is None or tsite is bsite:
                        continue
                    joined, lost = _join_elem(bsite.elem, tsite.elem)
                    if not _val_eq(joined, bsite.elem) or lost:
                        base.own(sid).elem = joined
                        base.escape(lost)
                        stable = False
                if stable:
                    break
            else:
                for sid in list(base.sites):
                    elem = base.sites[sid].elem
                    base.escape_value(elem)
                    if elem is not None:
                        base.own(sid).elem = None
                trial, trial_exits = self._run_trial(
                    body, base, watch, target, element, test, ret_mark,
                    site_mark)
            had_exit = had_exit or bool(trial_exits)

            # 4. Restoration: before + delta * trips.
            result = self._restore(state, trial, trips, had_exit,
                                   watch.frozen)
            for exit_state in trial_exits:
                for name, value in exit_state.env.items():
                    if name in result.env \
                            and _val_eq(result.env[name], value):
                        continue
                    joined, lost = _join_value(result.env.get(name),
                                               value)
                    result.env[name] = joined
                    result.escape(lost)
            if trips.lo < 1.0 or had_exit:
                result.join_into(state)
            state.env = result.env
            state.sites = result.sites
            state.owned = result.owned
            state.dead = False
        finally:
            self._loop_depth -= 1
        if self._loop_depth == 0 and self._pending_returns:
            for value in self._pending_returns:
                self.exit_states.append((value, state.clone()))
            del self._pending_returns[:]

    def _run_trial(self, body: Sequence[ast.stmt], base: _State,
                   watch: _Watch, target: Optional[ast.expr], element: Any,
                   test: Optional[ast.expr], ret_mark: int,
                   site_mark: int) -> Tuple[_State, List[_State]]:
        """One trial run of a loop body from its widened ``base``.

        A run that writes a site ``watch`` holds frozen is discarded
        (with the budget and summaries it spent) and run again with
        those sites zeroed in ``base``, so the accepted run equals one
        from a base with every site zeroed.  A budget bailout counts
        only in a run that wrote no frozen site.
        """
        owner = self.owner
        depths = (self._loop_depth, self._cond_depth)
        while True:
            del self._pending_returns[ret_mark:]
            owner.reset_site_counter(site_mark)
            mark = owner.checkpoint()
            trial = base.clone()
            trial.watch = watch
            exits: List[_State] = []
            try:
                self._run_one_body(body, trial, target, element, test,
                                   exits)
            except _Bailout:
                if not watch.hits:
                    raise
                self._loop_depth, self._cond_depth = depths
            if not watch.hits:
                return trial, exits
            owner.rollback(mark)
            for sid in watch.hits:
                _zero_anchor(base, sid, widen=False)
            watch.frozen -= watch.hits
            watch.hits = set()

    def _run_one_body(self, body: Sequence[ast.stmt], run: _State,
                      target: Optional[ast.expr], element: Any,
                      test: Optional[ast.expr],
                      exits: List[_State]) -> None:
        if test is not None:
            self._eval(test, run)
        if target is not None:
            self._bind(target, element, run)
        self._cond_depth += 1
        try:
            self._run_body(body, run, loop_exits=exits)
        finally:
            self._cond_depth -= 1
        if run.dead and exits:
            run.join_into(exits[0])
        run.dead = False

    @staticmethod
    def _diff(before: _State,
              after: _State) -> Tuple[Set[int], Set[str]]:
        mutated: Set[int] = set()
        for sid, bsite in before.sites.items():
            asite = after.sites.get(sid)
            if asite is None or asite is bsite:
                continue
            if (bsite.ops != asite.ops or bsite.size != asite.size
                    or not _val_eq(bsite.elem, asite.elem)
                    or bsite.escaped != asite.escaped):
                mutated.add(sid)
        changed: Set[str] = set()
        for name in set(before.env) | set(after.env):
            if not _val_eq(before.env.get(name), after.env.get(name)):
                changed.add(name)
        return mutated, changed

    def _restore(self, pre: _State, trial: _State, trips: Interval,
                 had_exit: bool, frozen: Set[int]) -> _State:
        if had_exit:
            trips = Interval(0.0, trips.hi)
        result = pre.clone()
        lost_refs: Set[int] = set()
        for sid, tsite in trial.sites.items():
            before = pre.sites.get(sid)
            if before is None:
                # Created inside the body: per-instance stats stand,
                # the *instance count* scales with the trip count.
                site = tsite.clone()
                site.instances = site.instances * trips
                if trips.lo < 1.0:
                    site.conditional = True
                    site.instances = site.instances.hull(ZERO)
                result.adopt(sid, site)
                continue
            if tsite is before:
                continue                # untouched: a zero delta
            if sid in frozen:
                # Unzeroed in the base and unwritten by the trial: its
                # per-iteration delta is zero; escapes and element joins
                # the base took still merge below.
                delta_ops: Dict[str, Interval] = {}
                delta_g = ZERO
                peak = 0.0
            else:
                delta_ops = tsite.ops
                delta_g = tsite.growth
                peak = tsite.peak
            if had_exit:
                delta_ops = {op: Interval(0.0, max(0.0, d.hi))
                             for op, d in delta_ops.items()}
                delta_g = Interval(min(0.0, delta_g.lo),
                                   max(0.0, delta_g.hi))
                peak = max(0.0, peak)
            site = result.own(sid)
            for op, delta in delta_ops.items():
                site.ops[op] = site.ops.get(op, ZERO) + delta * trips
            total_g = delta_g * trips
            new_size = (before.size + total_g).clamp_lower()
            if delta_g.hi <= 0.0:
                extra = peak
            elif trips.hi == _INF:
                extra = _INF
            else:
                extra = peak + delta_g.hi * max(0.0, trips.hi - 1.0)
            site.size = new_size
            site.max_size = Interval(
                max(before.max_size.lo, new_size.lo),
                max(before.max_size.hi, before.size.hi + extra,
                    new_size.hi))
            site.growth = before.growth + total_g
            site.peak = max(before.peak, before.growth.hi + extra)
            site.escaped = before.escaped or tsite.escaped
            site.conditional = before.conditional or tsite.conditional
            site.returned = before.returned or tsite.returned
            site.elem, lost = _join_elem(before.elem, tsite.elem)
            lost_refs |= lost
            site.variable = before.variable or tsite.variable
        # Escape only after every site is in place: an element lost at
        # one site may reference a site processed later in the walk.
        result.escape(lost_refs)
        result.env = dict(trial.env)
        return result


# ----------------------------------------------------------------------
# Tracked-method transfer tables: (dsl op, size mode, result, elem arg)
# ----------------------------------------------------------------------
_COMMON_METHODS = {
    "size": ("#size", None, "size", None),
    "is_empty": ("#isEmpty", None, "maybe", None),
    "clear": ("#clear", "clear", None, None),
    "iterate": ("#iterator", None, "iter", None),
}

_METHOD_SPECS: Dict[str, Dict[str, tuple]] = {
    "list": {
        **_COMMON_METHODS,
        "add": ("#add", "+1", None, 0),
        "add_at": ("#add(int)", "+1", None, 1),
        "add_all": ("#addAll", "+n", None, None),
        "add_all_at": ("#addAll(int)", "+n", None, None),
        "get": ("#get(int)", None, "elem", None),
        "set_at": ("#set(int)", None, None, 1),
        "remove_at": ("#remove(int)", "-1", "elem", None),
        "remove_first": ("#removeFirst", "-1", "elem", None),
        "remove_value": ("#remove", "[-1,0]", "maybe", None),
        "contains": ("#contains", None, "maybe", None),
        "index_of": ("#indexOf", None, None, None),
        "to_list": ("#toArray", None, None, None),
    },
    "set": {
        **_COMMON_METHODS,
        "add": ("#add", "[0,1]", None, 0),
        "add_all": ("#addAll", "[0,n]", None, None),
        "remove_value": ("#remove", "[-1,0]", "maybe", None),
        "contains": ("#contains", None, "maybe", None),
        "to_list": ("#toArray", None, None, None),
    },
    "map": {
        **_COMMON_METHODS,
        "put": ("#put", "[0,1]", None, 1),
        "put_all": ("#putAll", "[0,n]", None, None),
        "get": ("#get(Object)", None, "elem", None),
        "remove_key": ("#removeKey", "[-1,0]", "elem", None),
        "contains_key": ("#containsKey", None, "maybe", None),
        "contains_value": ("#containsValue", None, "maybe", None),
        "iterate_items": ("#iterator", None, "iter", None),
        "iterate_keys": ("#iterator", None, "iter", None),
    },
}

_PYLIST_METHODS: Dict[str, tuple] = {
    "append": (None, "+1", None, 0),
    "extend": (None, "+n", None, None),
    "insert": (None, "+1", None, 1),
    "pop": (None, "-1", "elem", None),
    "remove": (None, "[-1,0]", None, None),
    "clear": (None, "clear", None, None),
    "sort": (None, None, None, None),
    "reverse": (None, None, None, None),
    "copy": (None, None, None, None),
    "count": (None, None, None, None),
    "index": (None, None, None, None),
}

_BUILTIN_FNS = frozenset({
    "len", "range", "enumerate", "min", "max", "abs", "int", "float",
    "bool", "round", "list", "tuple", "set", "dict", "sorted", "sum",
    "print", "isinstance", "hasattr", "callable", "getattr", "zip",
    "str", "repr", "reversed", "iter", "next", "any", "all",
})


# ----------------------------------------------------------------------
# Public report
# ----------------------------------------------------------------------
@dataclass
class SiteReport:
    """Inferred interval statistics and rule verdicts for one site."""

    location: str                 # profiler frame (module.function)
    line: int                     # allocation line
    coarse_location: str          # where the coarse linter reports it
    coarse_line: int
    file: str
    kind: str
    variable: str
    src_types: Tuple[str, ...]
    ops: Dict[str, Interval]
    max_size: Interval
    size: Interval
    capacity: Optional[Interval]
    instances: Interval
    escaped: bool
    conditional: bool
    size_stable: bool
    chain: Tuple[Tuple[str, int, str], ...]
    #: per src_type -> per rule name -> Tri verdict
    verdicts: Dict[str, Dict[str, Tri]] = field(default_factory=dict)
    #: per src_type -> (rule name, Suggestion) for a *must* decision
    decisions: Dict[str, Tuple[str, Any]] = field(default_factory=dict)

    @property
    def context(self) -> str:
        src = self.src_types[0] if self.src_types else self.kind
        return f"{src}:{self.location}:{self.line}"

    def ops_total(self) -> Interval:
        total = ZERO
        for value in self.ops.values():
            total = total + value
        return total


@dataclass
class InterprocReport:
    """Whole-run result: sites, findings, and the static proposal."""

    sites: List[SiteReport] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)
    proposal: Any = None          # repro.core.apply.ReplacementMap
    waived: Dict[str, int] = field(default_factory=Counter)
    """Per-id counts of findings ``# lint: ignore[...]`` silenced."""

    def proposal_rows(self) -> List[Tuple[str, int, str, str, str]]:
        """``(location, line, src_type, rule, detail)`` rows of the
        static proposal, the shape
        :func:`repro.lint.drift.three_way_report` consumes."""
        rows: List[Tuple[str, int, str, str, str]] = []
        for site in self.sites:
            for src_type, (rule, suggestion) in sorted(
                    site.decisions.items()):
                rows.append((site.location, site.line, src_type, rule,
                             suggestion.action.render()))
        return rows

    def classify(self, prediction: StaticPrediction) -> Tri:
        """Three-valued verdict for one coarse static prediction.

        ``TRUE``  -- some matching site *must* fire the predicted rule;
        ``FALSE`` -- every matching site refutes it;
        ``UNKNOWN`` otherwise (straddling intervals or no matching
        site at all -- the interprocedural analysis never guesses).
        """
        verdicts: List[Tri] = []
        for site in self.sites:
            if site.coarse_location != prediction.location:
                continue
            if not lines_compatible(prediction.line, site.coarse_line):
                continue
            overlap = [src for src in site.src_types
                       if src in prediction.src_types]
            if not overlap:
                # Line tolerance can rope in a neighbouring allocation
                # of a different source type; that is a different site,
                # not evidence about this prediction.
                continue
            for src in overlap:
                rules = site.verdicts.get(src)
                if rules is None:
                    verdicts.append(Tri.UNKNOWN)
                else:
                    verdicts.append(rules.get(prediction.predicted_rule,
                                              Tri.FALSE))
        if not verdicts:
            return Tri.UNKNOWN
        if all(v is Tri.TRUE for v in verdicts):
            return Tri.TRUE
        if all(v is Tri.FALSE for v in verdicts):
            return Tri.FALSE
        return Tri.UNKNOWN


def _site_env(site: SiteState) -> Tuple[Dict[str, Interval], bool]:
    """Lower a site into the rule-condition environment.

    Escaped sites keep their lower bounds (operations *we saw* did
    happen) and widen upper bounds to infinity (unknown code may add
    more); that is exactly the sound direction for three-valued
    condition evaluation.
    """
    env: Dict[str, Interval] = {}
    widen = site.escaped
    all_ops = ZERO
    for op in _KIND_DSL_OPS.get(site.kind, ()):
        value = site.ops.get(op, ZERO)
        if widen:
            value = value.widen_hi()
        env[op] = value
        all_ops = all_ops + value
    for op, value in site.ops.items():
        if op not in env:
            env[op] = value.widen_hi() if widen else value
            all_ops = all_ops + env[op]
    max_size = site.max_size.widen_hi() if widen else site.max_size
    env["allOps"] = all_ops
    env["maxSize"] = max_size
    env["avgMaxSize"] = max_size
    env["maxMaxSize"] = max_size
    env["size"] = site.size.widen_hi() if widen else site.size
    if site.capacity is not None:
        env["initialCapacity"] = site.capacity
    elif site.capacity_unknown:
        env["initialCapacity"] = NON_NEGATIVE
    else:
        env["initialCapacity"] = ZERO
    # One static root invocation under-approximates dynamic instance
    # counts: the program may call the root any number of times.
    env["instances"] = Interval(site.instances.lo, _INF)
    env["deadInstances"] = NON_NEGATIVE
    env["swaps"] = ZERO
    size_stable = site.max_size.is_point and not site.escaped
    return env, size_stable


def _synthetic_profile(site: SiteState, src_type: str,
                       env: Dict[str, Interval]):
    """A representative ``ContextProfile`` for suggestion synthesis.

    The rule engine's capacity resolution reads Welford statistics, so
    we observe the representative size four times (stddev 0: a stable
    interval *is* a repeatable size) on a fresh ``ContextInfo``.
    """
    from repro.collections.base import CollectionKind
    from repro.profiler.context_info import ContextInfo
    from repro.profiler.report import ContextProfile
    from repro.runtime.context import ContextFrame, ContextKey

    def rep(interval: Interval) -> float:
        return interval.hi if interval.hi != _INF else interval.lo

    info = ContextInfo(0, src_type)
    size_rep = rep(env["maxSize"])
    for _ in range(4):
        info.max_size_stats.observe(size_rep)
        info.final_size_stats.observe(rep(env["size"]))
        if site.capacity is not None:
            info.initial_capacity_stats.observe(rep(site.capacity))
    info.instances_allocated = 4
    info.instances_dead = 4
    info.total_ops = int(rep(env["allOps"])) * 4
    key = ContextKey((ContextFrame(site.location, site.line),))
    kind = CollectionKind[site.kind.upper()]
    return ContextProfile(context_id=0, key=key, info=info,
                          heap=None, kind=kind)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _collect_sites(owner: _ModuleAnalysis) -> List[SiteState]:
    """Run every function as a root, plus the module body, and gather
    the reportable collection sites."""
    root_finals: List[Tuple[Tuple[Optional[str], str], _State]] = []
    for cls, name, node in owner.iter_roots():
        interp = _FuncInterp(owner, cls, name, node, root=True)
        try:
            final = interp.run_root()
        except (_Bailout, RecursionError):
            continue
        root_finals.append(((cls, name), final))
    module_interp = _FuncInterp(owner, None, "<module>", None, root=True)
    module_interp.location = owner.module
    try:
        module_final = module_interp.run_module_body(owner.tree.body)
    except (_Bailout, RecursionError):
        module_final = None
    if module_final is not None:
        # A module-level collection referenced from any function body
        # can be mutated through the global namespace.
        for name, value in module_final.env.items():
            if name in owner.root_names:
                module_final.escape_value(value)
        root_finals.append(((None, "<module>"), module_final))

    sites: List[SiteState] = []
    for root_key, final in root_finals:
        summarized = root_key in owner.used_summaries
        if root_key[1] in owner.address_taken:
            # Address-taken function: unknown callers receive whatever
            # it returns, so returned sites escape the analysis.
            final.escape([sid for sid, site in final.sites.items()
                          if site.returned])
        # Escape cascade: anything held inside an escaped container is
        # itself reachable from unknown code.
        pending = [site for site in final.sites.values() if site.escaped]
        while pending:
            holder = pending.pop()
            for sid in _refs_in(holder.elem):
                inner = final.sites.get(sid)
                if inner is not None and not inner.escaped:
                    final.escape((sid,))
                    pending.append(final.sites[sid])
        for site in final.sites.values():
            if site.kind not in REAL_KINDS:
                continue
            if summarized and site.returned:
                # Callers instantiated this factory's summary; the
                # call-site copies carry the (richer) statistics.
                continue
            sites.append(site)
    return sites


def _evaluate_site(site: SiteState, engine) -> SiteReport:
    env, size_stable = _site_env(site)
    report = SiteReport(
        location=site.location, line=site.line,
        coarse_location=site.coarse_location,
        coarse_line=site.coarse_line, file=site.file, kind=site.kind,
        variable=site.variable,
        src_types=tuple(sorted(site.src_types)),
        ops={op: value for op, value in sorted(env.items())
             if op.startswith("#")},
        max_size=env["maxSize"], size=env["size"],
        capacity=site.capacity, instances=site.instances,
        escaped=site.escaped, conditional=site.conditional,
        size_stable=size_stable, chain=site.chain)
    for src_type in report.src_types or (None,):
        if src_type is None:
            break
        profile = _synthetic_profile(site, src_type, env)
        verdicts, decision = engine.evaluate_intervals(
            profile, env, size_stable)
        report.verdicts[src_type] = verdicts
        if decision is not None:
            report.decisions[src_type] = decision
    return report


def _site_findings(report: SiteReport) -> List[Finding]:
    findings: List[Finding] = []
    related = tuple(Related(file=file, line=line, message=note)
                    for file, line, note in report.chain)
    for src_type, (rule, suggestion) in sorted(report.decisions.items()):
        findings.append(Finding(
            id="L2I-interval-must",
            severity=Severity.WARNING,
            message=(f"inferred intervals prove rule '{rule}' fires for "
                     f"every run (maxSize {report.max_size.render()}, "
                     f"allOps {report.ops_total().render()})"),
            span=Span(file=report.file, line=report.line),
            context=f"{src_type}:{report.location}:{report.line}",
            predicted_rule=rule,
            fix_hint=suggestion.action.render(),
            related=related,
        ))
    return findings


def _report_proposal(reports: Sequence[SiteReport]):
    from repro.core.apply import ReplacementMap
    from repro.runtime.context import ContextFrame, ContextKey

    proposal = ReplacementMap()
    for report in reports:
        key = ContextKey((ContextFrame(report.location, report.line),))
        for src_type, (_rule, suggestion) in report.decisions.items():
            choice = suggestion.to_choice()
            if choice is not None:
                proposal.set_choice(key, src_type, choice)
    return proposal


def _builtin_engine():
    """The rule engine the interval analysis evaluates sites with: the
    built-in rules and constants, validated once per build."""
    from repro.profiler.stability import StabilityPolicy
    from repro.rules.builtin import BUILTIN_RULES, DEFAULT_CONSTANTS
    from repro.rules.engine import RuleEngine

    return RuleEngine(BUILTIN_RULES, DEFAULT_CONSTANTS, StabilityPolicy())


def analyze_source(source: str, path: str = "<source>",
                   budget: int = DEFAULT_BUDGET) -> InterprocReport:
    """Interprocedurally analyze one Python source text."""
    return _analyze_source(source, path, budget, _builtin_engine())


def _analyze_source(source: str, path: str, budget: int,
                    engine) -> InterprocReport:
    report = InterprocReport()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        report.findings.append(syntax_error_finding(path, exc))
        report.proposal = _report_proposal([])
        return report
    owner = _ModuleAnalysis(tree, _module_name(path), path,
                            budget=budget)
    findings: List[Finding] = []
    for site in _collect_sites(owner):
        site_report = _evaluate_site(site, engine)
        report.sites.append(site_report)
        findings.extend(_site_findings(site_report))
    report.findings, report.waived = apply_waivers(source, findings)
    report.sites.sort(key=lambda s: (s.file, s.line, s.location))
    report.findings.sort(key=lambda f: (f.span.file, f.span.line, f.id))
    report.proposal = _report_proposal(report.sites)
    return report


def analyze_paths(paths: Sequence[str],
                  budget: int = DEFAULT_BUDGET) -> InterprocReport:
    """Analyze files/directories; one merged report.  The rule engine
    is built once for all of them (it holds no per-file state)."""
    merged = InterprocReport()
    engine = _builtin_engine()
    for file_path, source in read_sources(paths, merged.findings):
        sub = _analyze_source(source, file_path, budget, engine)
        merged.sites.extend(sub.sites)
        merged.findings.extend(sub.findings)
        merged.waived.update(sub.waived)
    merged.proposal = _report_proposal(merged.sites)
    return merged

