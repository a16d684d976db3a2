"""Workload synthesis from statically inferred op-mix signatures.

``lint --paths ... --signatures`` (:func:`repro.lint.interproc
.export_signatures`) lowers every analysed allocation site into a
``chameleon-sig`` spec: per-op frequency intervals, maximal/final size
intervals, the requested capacity and whether the site's size is
provably stable.  This module closes the loop: each spec deterministically
expands into a recorded-trace document (:class:`repro.verify.trace.Trace`)
whose realized statistics are drawn *from* those intervals, which then
compiles through the PR 7 trace pipeline into a runnable, registered
:class:`repro.workloads.compiled.CompiledTraceWorkload` scenario.

The generator is fully deterministic: every draw comes from a PRNG
string-seeded with the signature name, so a given spec always produces
the same trace (and the compiled workload layers its usual per-round
perturbation on top).
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional, Sequence

from repro.collections.base import CollectionKind
from repro.verify.compile import compile_trace
from repro.verify.trace import Trace, encode_value
from repro.workloads.base import Workload, WorkloadRegistry
from repro.workloads.compiled import CompiledTraceWorkload

__all__ = ["SIGNATURE_SCHEMA", "trace_from_signature",
           "scenario_from_signature", "load_signature_file",
           "bundled_signature_specs", "register_signature_scenarios"]

SIGNATURE_SCHEMA = "chameleon-sig"

_SIGNATURE_DIR = os.path.join(os.path.dirname(__file__), "signatures")

#: Default trace src_type / baseline per kind when the spec carries an
#: unknown (or no) source type.
_KIND_DEFAULTS = {
    CollectionKind.LIST: "ArrayList",
    CollectionKind.SET: "HashSet",
    CollectionKind.MAP: "HashMap",
}

#: Fig. 4 op spelling -> recorded-trace op name, per kind.  Ops with no
#: replayable surface (argument-side events like ``#copied``) map to
#: ``None`` and are dropped (recorded in ``meta["dropped"]``).
_DSL_TO_TRACE: Dict[CollectionKind, Dict[str, Optional[str]]] = {
    CollectionKind.LIST: {
        "#add": "add", "#add(int)": "add_at", "#addAll": "add_all",
        "#addAll(int)": "add_all_at", "#get(int)": "get",
        "#set(int)": "set_at", "#remove(int)": "remove_at",
        "#removeFirst": "remove_first", "#remove": "remove_value",
        "#contains": "contains", "#indexOf": "index_of",
        "#toArray": "to_list", "#size": "size", "#isEmpty": "is_empty",
        "#clear": "clear", "#iterator": "iterate",
        "#copied": None, "#iterEmpty": None,
    },
    CollectionKind.SET: {
        "#add": "add", "#addAll": "add_all", "#remove": "remove_value",
        "#contains": "contains", "#size": "size", "#isEmpty": "is_empty",
        "#clear": "clear", "#iterator": "iterate",
        "#copied": None, "#iterEmpty": None,
    },
    CollectionKind.MAP: {
        "#put": "put", "#putAll": "put_all", "#get(Object)": "get",
        "#removeKey": "remove_key", "#containsKey": "contains_key",
        "#containsValue": "contains_value", "#size": "size",
        "#isEmpty": "is_empty", "#clear": "clear", "#iterator": "iterate",
        "#copied": None, "#iterEmpty": None,
    },
}

#: Ops that grow the collection when their element is fresh.
_GROW_OPS = {"add", "add_at", "put"}


def _check_spec(spec: Dict[str, Any]) -> None:
    if spec.get("schema") != SIGNATURE_SCHEMA:
        raise ValueError(f"not a {SIGNATURE_SCHEMA} spec: "
                         f"schema={spec.get('schema')!r}")
    if spec.get("version", 1) > 1:
        raise ValueError(f"signature version {spec['version']} "
                         "is newer than supported (1)")
    for key in ("name", "kind", "maxSize"):
        if key not in spec:
            raise ValueError(f"signature spec missing {key!r}")


def _draw(interval: Optional[Sequence[Optional[float]]],
          rng: random.Random, unbounded_slack: int = 6) -> int:
    """One realized value from an exported ``[lo, hi|null]`` interval."""
    if interval is None:
        return 0
    lo = max(0, int(interval[0] or 0))
    hi = interval[1]
    if hi is None:
        return lo + rng.randint(0, unbounded_slack)
    hi = int(hi)
    return lo if hi <= lo else rng.randint(lo, hi)


def trace_from_signature(spec: Dict[str, Any], seed: int = 2009) -> Trace:
    """Expand one ``chameleon-sig`` spec into a synthetic recorded trace.

    The realized workload honours the signature's structure: it grows to
    a maximal size drawn from ``maxSize``, spends the drawn op budget of
    each replayable operation, shrinks to a final size drawn from
    ``size``, and opens one full iteration pass per drawn ``#iterator``.
    Draws are string-seeded from the signature name, so the expansion is
    a pure function of (spec, seed).
    """
    _check_spec(spec)
    kind = CollectionKind(spec["kind"].capitalize()
                          if spec["kind"].islower() else spec["kind"])
    rng = random.Random(f"chameleon-sig/{spec['name']}/{seed}")
    op_map = _DSL_TO_TRACE[kind]

    budgets: Dict[str, int] = {}
    dropped: List[str] = []
    for dsl, interval in sorted((spec.get("ops") or {}).items()):
        trace_op = op_map.get(dsl)
        if trace_op is None:
            dropped.append(dsl)
            continue
        count = _draw(interval, rng)
        if count:
            budgets[trace_op] = budgets.get(trace_op, 0) + count

    peak_iv = spec.get("maxSize") or [0, 0]
    lo_peak = max(0, int(peak_iv[0] or 0))
    hi_peak = peak_iv[1]
    grow_budget = sum(budgets.get(op, 0) for op in _GROW_OPS)
    # The realized peak: as much of the fresh-growth op budget as the
    # signature's maxSize interval admits, never below its lower bound.
    natural = grow_budget if hi_peak is None \
        else min(int(hi_peak), grow_budget)
    max_size = max(lo_peak, natural)
    final_size = min(_draw(spec.get("size"), rng), max_size)
    max_size = max(max_size, final_size)

    ops: List[list] = []
    live: List[Any] = []       # element values (list/set) or keys (map)
    fresh = iter(range(1, 1 << 30))

    def value_for(index: int) -> Any:
        return index * 7 + 1 if kind is not CollectionKind.MAP \
            else f"k{index}"

    def emit(name: str, *args: Any) -> None:
        ops.append([name, *args])

    def enc(value: Any) -> list:
        return encode_value(value, None)  # type: ignore[arg-type]

    def spend(name: str, count: int = 1) -> bool:
        if budgets.get(name, 0) < count:
            return False
        budgets[name] -= count
        return True

    def grow_once() -> None:
        index = next(fresh)
        value = value_for(index)
        if kind is CollectionKind.MAP:
            emit("put", enc(value), enc(index))
        elif spend("add_at"):
            emit("add_at", rng.randint(0, len(live)), enc(value))
        else:
            budgets["add"] = max(0, budgets.get("add", 0) - 1)
            emit("add", enc(value))
        live.append(value)

    # Phase 1 -- grow to the drawn maximal size.
    while len(live) < max_size:
        grow_once()

    # Phase 2 -- spend the remaining op budget without growing past the
    # peak: re-adds hit existing elements (sets/maps absorb them as
    # no-growth updates; lists pair each with a removal), reads target
    # live elements.
    def read_target() -> Any:
        return rng.choice(live) if live else value_for(next(fresh))

    extra_adds = budgets.get("add", 0) + budgets.get("put", 0)
    for _ in range(extra_adds):
        if kind is CollectionKind.MAP:
            spend("put")
            key = read_target()
            emit("put", enc(key), enc(next(fresh)))
            if key not in live:
                live.append(key)
        elif kind is CollectionKind.SET:
            spend("add")
            value = read_target()
            emit("add", enc(value))
            if value not in live:
                live.append(value)
        else:
            spend("add")
            if live and (spend("remove_at") or spend("remove_first")
                         or spend("remove_value")):
                victim = rng.randrange(len(live))
                emit("remove_at", victim)
                live.pop(victim)
            index = next(fresh)
            value = value_for(index)
            emit("add", enc(value))
            live.append(value)
            if len(live) > max_size:      # keep the drawn peak honest
                emit("remove_at", len(live) - 1)
                live.pop()

    _READS = {"get": ("i",), "set_at": ("i", "v"), "contains": ("v",),
              "contains_key": ("v",), "contains_value": ("v",),
              "index_of": ("v",), "remove_value": ("v",),
              "remove_at": ("i",), "remove_first": (), "remove_key": ("v",),
              "get_obj": ("v",), "to_list": (), "size": (),
              "is_empty": ()}
    for name in sorted(budgets):
        if name in ("add", "put", "add_at", "iterate", "clear",
                    "add_all", "add_all_at", "put_all"):
            continue
        arity = _READS.get(name)
        if arity is None:
            continue
        removing = name.startswith("remove")
        while budgets.get(name, 0) > 0:
            spend(name)
            if removing and not live:
                continue
            if name == "remove_first":
                emit("remove_first")
                live.pop(0)
                continue
            args = []
            victim = rng.randrange(len(live)) if live else 0
            for arg_kind in arity:
                if arg_kind == "i":
                    args.append(victim)
                else:
                    args.append(enc(live[victim] if live
                                    else value_for(next(fresh))))
            if name == "get" and kind is CollectionKind.MAP:
                emit("get", enc(read_target()))
            else:
                emit(name, *args)
            if removing:
                live.pop(victim)

    # Bulk ops: one shot each, small payloads of fresh values.
    for name in ("add_all", "add_all_at", "put_all"):
        while budgets.get(name, 0) > 0:
            spend(name)
            payload = [next(fresh) for _ in range(rng.randint(1, 3))]
            if name == "put_all":
                emit("put_all", [["p", [enc(f"k{v}"), enc(v)]]
                                 for v in payload])
                live.extend(f"k{v}" for v in payload)
            elif name == "add_all_at":
                emit("add_all_at", rng.randint(0, len(live)),
                     [enc(value_for(v)) for v in payload])
                live.extend(value_for(v) for v in payload)
            else:
                emit("add_all", [enc(value_for(v)) for v in payload])
                live.extend(value_for(v) for v in payload)

    # Iteration passes: one full sweep per drawn #iterator.
    for slot in range(budgets.get("iterate", 0)):
        emit("iter_new", slot, "values")
        for _ in range(len(live) + 1):
            emit("iter_next", slot)

    # Phase 3 -- shrink to the drawn final size (clears first if drawn).
    if spend("clear"):
        emit("clear")
        live.clear()
        while budgets.get("clear", 0) > 0:   # re-clears are no-growth
            spend("clear")
            emit("clear")
    while len(live) > final_size:
        if kind is CollectionKind.MAP:
            emit("remove_key", enc(live.pop()))
        elif kind is CollectionKind.SET:
            emit("remove_value", enc(live.pop()))
        else:
            emit("remove_at", len(live) - 1)
            live.pop()
    while len(live) < final_size:
        grow_once()

    src_type = spec.get("srcType") or _KIND_DEFAULTS[kind]
    meta = {"generator": "signature", "signature": spec["name"],
            "maxSize": max_size, "finalSize": final_size}
    if dropped:
        meta["dropped"] = dropped
    return Trace(kind=kind, src_type=src_type,
                 baseline_impl=_KIND_DEFAULTS[kind],
                 context=spec.get("context", ""), ops=ops, meta=meta)


def scenario_from_signature(spec: Dict[str, Any], rounds: int = 2,
                            perturb: float = 0.2,
                            **kwargs: Any) -> Workload:
    """The runnable workload scenario for one signature spec."""
    seed = int(kwargs.get("seed", 2009))
    program = compile_trace(trace_from_signature(spec, seed=seed))
    kwargs.setdefault("scenario", spec["name"])
    return CompiledTraceWorkload(program, rounds=rounds,
                                 perturb=perturb, **kwargs)


def load_signature_file(path: str) -> List[Dict[str, Any]]:
    """Signature specs from a ``lint --signatures`` JSON export.

    Accepts either a bare list of specs or a document with a
    ``signatures`` key (the CLI export format).
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    specs = data.get("signatures", []) if isinstance(data, dict) else data
    for spec in specs:
        _check_spec(spec)
    return list(specs)


def bundled_signature_specs() -> List[Dict[str, Any]]:
    """Every signature spec shipped under ``workloads/signatures/``."""
    specs: List[Dict[str, Any]] = []
    if not os.path.isdir(_SIGNATURE_DIR):
        return specs
    for name in sorted(os.listdir(_SIGNATURE_DIR)):
        if name.endswith(".json"):
            specs.extend(
                load_signature_file(os.path.join(_SIGNATURE_DIR, name)))
    return specs


def register_signature_scenarios(registry: WorkloadRegistry) -> None:
    """Register every bundled signature spec as a named scenario."""
    for spec in bundled_signature_specs():
        def factory(spec: Dict[str, Any] = spec,
                    **kwargs: Any) -> Workload:
            kwargs.pop("name", None)
            return scenario_from_signature(spec, **kwargs)
        registry.register(spec["name"], factory)
