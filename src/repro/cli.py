"""Command-line interface for the reproduction.

Mirrors how the paper's tool is used: run an application under semantic
profiling, read the ranked contexts and suggestions, apply the fixes and
compare, or regenerate any of the evaluation's tables and figures.

Examples::

    chameleon-repro list
    chameleon-repro profile tvla --scale 0.3 --top 5
    chameleon-repro optimize findbugs
    chameleon-repro online pmd --scale 0.3
    chameleon-repro experiment fig6 --scale 0.4 --jobs 4
    chameleon-repro experiment all --jobs 4 \\
        --session-cache benchmarks/runs/store
    chameleon-repro perf --scale 0.2 --repeats 3
    chameleon-repro perf --suite --jobs 4
    chameleon-repro perf --gate --gate-window 5
    chameleon-repro history
    chameleon-repro history tvla_capture_on --last 10
    chameleon-repro fuzz --adt all --seeds 50
    chameleon-repro fuzz --record tvla --scale 0.05
    chameleon-repro compile-trace tests/verify/corpus/tvla-map-000.json \\
        --rounds 3 --sanitize
    chameleon-repro compile-trace tests/verify/corpus/*.json --multi-tenant
    chameleon-repro lint --paths src/repro/workloads --format sarif \\
        --output lint.sarif
    chameleon-repro lint --drift benchmarks/runs/store --paths src

(Equivalently: ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import List, Optional

from repro.analysis import experiments
from repro.core.chameleon import Chameleon
from repro.core.config import ToolConfig
from repro.core.online import OnlineChameleon
from repro.rules.engine import RuleEngine
from repro.workloads import default_workload_registry

__all__ = ["main", "build_parser", "default_runs_root"]


def default_runs_root() -> str:
    """Where run directories and ``runs.sqlite`` live by default."""
    return str(pathlib.Path(__file__).resolve().parents[2]
               / "benchmarks" / "runs")

_EXPERIMENTS = {
    "fig2": lambda args, sch: experiments.run_fig2(
        scale=args.scale).render(),
    "fig3": lambda args, sch: experiments.run_fig3(
        scale=args.scale).render(),
    "fig6": lambda args, sch: experiments.run_fig6(
        scale=args.scale, resolution=args.resolution,
        scheduler=sch).render(),
    "fig7": lambda args, sch: experiments.run_fig7(
        scale=args.scale, resolution=args.resolution,
        scheduler=sch).render(),
    "fig8": lambda args, sch: experiments.run_fig8(
        scale=args.scale).render(),
    "online": lambda args, sch: experiments.run_online(
        scale=args.scale).render(),
    "hybrid": lambda args, sch: experiments.run_hybrid_ablation(
        scale=args.scale).render(),
    "overhead": lambda args, sch: experiments.run_profiling_overhead(
        scale=args.scale).render(),
    "all": lambda args, sch: experiments.run_all(
        scale=args.scale, resolution=args.resolution, scheduler=sch),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="chameleon-repro",
        description="Chameleon (PLDI 2009) reproduction driver")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the bundled workloads")

    def add_workload_args(p):
        p.add_argument("workload", help="workload name (see 'list')")
        p.add_argument("--scale", type=float, default=0.4,
                       help="workload scale factor (default 0.4)")
        p.add_argument("--seed", type=int, default=2009)

    profile = sub.add_parser(
        "profile", help="run under semantic profiling; print the report")
    add_workload_args(profile)
    profile.add_argument("--top", type=int, default=5,
                         help="contexts/suggestions to show")
    profile.add_argument("--fractions", action="store_true",
                         help="also print the per-GC-cycle fraction series")
    profile.add_argument("--json", action="store_true",
                         help="emit the report and suggestions as JSON")

    optimize = sub.add_parser(
        "optimize", help="profile, apply suggestions, compare before/after")
    add_workload_args(optimize)
    optimize.add_argument("--top", type=int, default=None,
                          help="apply only the top N suggestions")

    online = sub.add_parser(
        "online", help="run in fully automatic (online) mode")
    add_workload_args(online)
    online.add_argument("--retrofit", action="store_true",
                        help="also convert already-live instances")

    histogram = sub.add_parser(
        "histogram",
        help="jmap-style per-type heap snapshot (the pre-Chameleon view)")
    add_workload_args(histogram)
    histogram.add_argument("--limit", type=int, default=15,
                           help="rows to show")

    experiment = sub.add_parser(
        "experiment", help="regenerate a table/figure of the paper")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS),
                            help="which artifact to regenerate")
    experiment.add_argument("--scale", type=float, default=0.4)
    experiment.add_argument("--resolution", type=int, default=8192,
                            help="min-heap search resolution in bytes")
    experiment.add_argument("--jobs", type=int, default=1,
                            help="worker processes for the experiment "
                                 "scheduler (1 = serial reference path)")
    experiment.add_argument("--session-cache", metavar="DIR", default=None,
                            help="attach this session-store directory "
                                 "(e.g. benchmarks/runs/store) behind the "
                                 "profiling-session cache in every "
                                 "process: sessions are read from it and "
                                 "each new one is written to it")
    experiment.add_argument("--runs-root", metavar="DIR", default=None,
                            help="write the manifest'd run directory and "
                                 "index the run here (default "
                                 "benchmarks/runs)")
    experiment.add_argument("--no-index", action="store_true",
                            help="skip writing a run directory and "
                                 "indexing this invocation")

    perf = sub.add_parser(
        "perf", help="wall-clock perf harness; emits BENCH_chameleon.json")
    perf.add_argument("--scale", type=float, default=0.2,
                      help="workload scale for every benchmark")
    perf.add_argument("--repeats", type=int, default=3,
                      help="runs per benchmark (the median wall clock "
                           "is reported; every repeat is recorded)")
    perf.add_argument("--seed", type=int, default=2009)
    perf.add_argument("--output", default=None, metavar="PATH",
                      help="write the JSON document here "
                           "(default benchmarks/perf/BENCH_chameleon.json)")
    perf.add_argument("--no-gc-heavy", action="store_true",
                      help="skip the GC-stress configuration")
    perf.add_argument("--check", metavar="PATH", default=None,
                      help="validate an existing BENCH json and exit")
    perf.add_argument("--gate", action="store_true",
                      help="fail (non-zero) when a benchmark's wall "
                           "clock regresses past the median of its "
                           "indexed history; refuses history that "
                           "measured different ticks")
    perf.add_argument("--gate-window", type=int, default=5, metavar="N",
                      help="indexed runs per benchmark the gate medians "
                           "over (default 5)")
    perf.add_argument("--gate-threshold", type=float, default=0.3,
                      metavar="F",
                      help="allowed wall-clock growth over the median "
                           "before the gate fails (default 0.3 = +30%%)")
    perf.add_argument("--runs-root", metavar="DIR", default=None,
                      help="write the manifest'd run directory and index "
                           "the run here (default benchmarks/runs)")
    perf.add_argument("--no-index", action="store_true",
                      help="skip writing a run directory and indexing "
                           "this invocation")
    perf.add_argument("--suite", action="store_true",
                      help="also benchmark the experiment scheduler "
                           "(fig6+fig7 serial vs parallel)")
    perf.add_argument("--jobs", type=int, default=4,
                      help="worker processes for the --suite section")
    perf.add_argument("--suite-scale", type=float, default=0.1,
                      help="workload scale for the --suite section")
    perf.add_argument("--suite-resolution", type=int, default=16384,
                      help="min-heap resolution for the --suite section")

    history = sub.add_parser(
        "history", help="query the cross-run index: per-benchmark "
                        "trends, one benchmark's series, or ingest an "
                        "existing BENCH document")
    history.add_argument("benchmark", nargs="?", default=None,
                         help="benchmark name to print the indexed "
                              "series for (default: trend summary of "
                              "every benchmark)")
    history.add_argument("--runs-root", metavar="DIR", default=None,
                         help="runs root holding runs.sqlite (default "
                              "benchmarks/runs)")
    history.add_argument("--last", type=int, default=None, metavar="N",
                         help="limit a benchmark series to the newest N "
                              "rows")
    history.add_argument("--window", type=int, default=5, metavar="N",
                         help="runs the trend summary medians over "
                              "(default 5)")
    history.add_argument("--ingest", metavar="BENCH_JSON", default=None,
                         help="index an existing BENCH document as a new "
                              "run (seeds gating history, e.g. in CI)")

    lint = sub.add_parser(
        "lint", help="static analysis: check rule sets, lint collection "
                     "usage in sources, diff against a profiling session")
    lint.add_argument("--rules", nargs="*", metavar="FILE", default=None,
                      help="rule files to check (one Fig. 4 rule per "
                           "line; default: the builtin Table 2 set)")
    lint.add_argument("--paths", nargs="*", metavar="PATH", default=None,
                      help="Python files/directories to lint for "
                           "collection usage (the usage linter and the "
                           "interval analysis)")
    lint.add_argument("--drift", metavar="DIR", default=None,
                      help="session-store directory (see 'experiment "
                           "--session-cache') to diff static predictions "
                           "against")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text", help="report format (default text)")
    lint.add_argument("--output", metavar="PATH", default=None,
                      help="write the report here instead of stdout")
    lint.add_argument("--fail-on", choices=["warning", "error"],
                      default="error",
                      help="exit 1 when a finding at or above this "
                           "severity exists (default error)")
    lint.add_argument("--no-overlap", action="store_true",
                      help="skip the pairwise overlap/shadowing checks")
    lint.add_argument("--signatures", metavar="PATH", default=None,
                      help="write the interval analysis's per-site op-mix "
                           "signatures (chameleon-sig JSON) here; needs "
                           "--paths")

    fuzz = sub.add_parser(
        "fuzz", help="differential trace fuzzer: replay generated or "
                     "recorded traces against every implementation")
    fuzz.add_argument("--adt", choices=["list", "map", "set", "all"],
                      default="all", help="which ADT kind(s) to fuzz")
    fuzz.add_argument("--seeds", type=int, default=50,
                      help="trace seeds per ADT (default 50)")
    fuzz.add_argument("--budget", type=float, default=None, metavar="S",
                      help="wall-clock budget in seconds; stop cleanly "
                           "when exceeded")
    fuzz.add_argument("--ops", type=int, default=40,
                      help="operations per generated trace")
    fuzz.add_argument("--record", metavar="WORKLOAD", default=None,
                      help="instead of generating traces, record them "
                           "from this workload and diff the recording")
    fuzz.add_argument("--scale", type=float, default=0.05,
                      help="workload scale for --record")
    fuzz.add_argument("--seed", type=int, default=2009,
                      help="workload seed for --record")
    fuzz.add_argument("--save-corpus", metavar="DIR", default=None,
                      help="with --record, save the captured traces here")
    fuzz.add_argument("--out", metavar="DIR", default="fuzz-failures",
                      help="where shrunk repro scripts are written")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="report failures without minimising them")
    fuzz.add_argument("--no-sanitize", action="store_true",
                      help="skip the heap sanitizer during replays")

    compile_trace = sub.add_parser(
        "compile-trace",
        help="compile recorded trace(s) into runnable workloads")
    compile_trace.add_argument("traces", nargs="+", metavar="TRACE",
                               help="trace JSON file(s) -- corpus entries, "
                                    "'fuzz --record --save-corpus' output "
                                    "or any repro.verify trace document")
    compile_trace.add_argument("--rounds", type=int, default=1,
                               help="rounds per compiled workload; rounds "
                                    "past the first are value-perturbed "
                                    "(default 1)")
    compile_trace.add_argument("--perturb", type=float, default=0.25,
                               help="per-value redraw probability for "
                                    "perturbed rounds (default 0.25)")
    compile_trace.add_argument("--seed", type=int, default=2009)
    compile_trace.add_argument("--impl", default=None, metavar="NAME",
                               help="run against this implementation "
                                    "instead of the trace's baseline")
    compile_trace.add_argument("--multi-tenant", action="store_true",
                               help="weave all given traces through one "
                                    "VM instead of running them one by "
                                    "one")
    compile_trace.add_argument("--sanitize", action="store_true",
                               help="attach the heap sanitizer to every "
                                    "compiled run")
    return parser


def _make_workload(args):
    registry = default_workload_registry()
    try:
        return registry.create(args.workload, seed=args.seed,
                               scale=args.scale)
    except KeyError:
        names = ", ".join(registry.names())
        raise SystemExit(
            f"unknown workload {args.workload!r}; available: {names}")


def _cmd_list(args) -> str:
    from repro.workloads.compiled import SCENARIOS

    registry = default_workload_registry()
    lines = ["bundled workloads:"]
    for name in registry.names():
        if name in SCENARIOS:
            continue
        workload = registry.create(name)
        lines.append(f"  {name:16s} {type(workload).__doc__.splitlines()[0]}")
    lines.append("")
    lines.append("scenario library (trace-compiled; see EXPERIMENTS.md):")
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        lines.append(f"  {name:28s} [{spec.family}] {spec.summary}")
        lines.append(f"  {'':28s} source: "
                     + ", ".join(f"scenarios/{stem}.json"
                                 for stem in spec.sources))
    return "\n".join(lines)


def _cmd_profile(args) -> str:
    tool = Chameleon(ToolConfig())
    session = tool.profile(_make_workload(args))
    if args.json:
        import json

        return json.dumps(
            {"report": session.report.to_dict(top=args.top),
             "suggestions": [s.to_dict() for s in session.suggestions]},
            indent=2)
    parts = [session.report.render_top_contexts(args.top), "",
             RuleEngine.render(session.suggestions, limit=args.top)]
    if args.fractions:
        parts += ["", session.report.render_fractions()]
    parts += ["", f"run: {session.metrics.ticks} ticks, "
                  f"peak {session.metrics.peak_live_bytes} bytes, "
                  f"{session.metrics.gc_cycles} GC cycles"]
    return "\n".join(parts)


def _cmd_optimize(args) -> str:
    tool = Chameleon(ToolConfig())
    result = tool.optimize(_make_workload(args), top=args.top)
    return "\n".join([RuleEngine.render(result.session.suggestions,
                                        limit=args.top),
                      "", result.policy.render(), "", result.render()])


def _cmd_online(args) -> str:
    config = ToolConfig(online_retrofit_live=args.retrofit)
    result = OnlineChameleon(config).run(_make_workload(args))
    return result.render()


def _cmd_histogram(args) -> str:
    from repro.analysis.heapdump import heap_histogram, render_histogram

    tool = Chameleon(ToolConfig())
    vm, _ = tool.plain_run(_make_workload(args))
    rows = heap_histogram(vm)
    return ("Per-type heap snapshot at end of run (no ADT attribution,\n"
            "no allocation contexts -- compare with 'profile'):\n"
            + render_histogram(rows, limit=args.limit))


def _index_invocation(args, kind: str, command: List[str],
                      params: dict, results: dict, artifacts: dict,
                      wall_seconds: float,
                      benchmarks: Optional[List[dict]] = None):
    """Write this invocation's run directory and upsert it into the
    cross-run index; returns ``(run_id, runs_root)``.

    ``artifacts`` maps file name to text content; ``benchmarks`` (BENCH-
    record-shaped dicts) become one indexed row each.
    """
    from repro.analysis.index import RunDirectory, RunIndex

    runs_root = args.runs_root or default_runs_root()
    run = RunDirectory.create(runs_root, kind, command=command,
                              params=params,
                              config_fingerprint=ToolConfig().fingerprint())
    for name, text in artifacts.items():
        run.add_artifact(name, text)
    manifest_path = run.finalize(results=results, wall_seconds=wall_seconds)
    with RunIndex.at_root(runs_root) as index:
        index.record_run(run.manifest, manifest_path=manifest_path)
        for record in benchmarks or []:
            index.record_benchmark(run.run_id, record)
    return run.run_id, runs_root


def _cmd_experiment(args) -> str:
    from repro.analysis.scheduler import Scheduler

    if args.jobs < 1:
        raise SystemExit("--jobs must be >= 1")
    if args.session_cache and pathlib.Path(args.session_cache).is_file():
        raise SystemExit(f"--session-cache {args.session_cache}: a "
                         f"file, not a session-store directory")
    experiments.attach_session_store(args.session_cache)
    try:
        start = time.perf_counter()
        with Scheduler(jobs=args.jobs,
                       warmup=(experiments.warm_worker,
                               (args.session_cache,))) as scheduler:
            output = _EXPERIMENTS[args.name](args, scheduler)
        wall_seconds = time.perf_counter() - start
    finally:
        experiments.attach_session_store(None)
    if not args.no_index:
        cache = experiments.get_session_cache()
        run_id, _ = _index_invocation(
            args, "experiment", ["experiment", args.name],
            params={"name": args.name, "scale": args.scale,
                    "resolution": args.resolution, "jobs": args.jobs},
            results={"wall_seconds": wall_seconds,
                     "cache_hits": cache.hits,
                     "cache_misses": cache.misses},
            artifacts={"output.txt": output + "\n"},
            wall_seconds=wall_seconds,
            # Experiment wall clocks have no tick identity (many runs
            # fold into one number), so the row carries ticks=None and
            # is never gate-compared against perf benchmarks.
            benchmarks=[{"name": f"experiment:{args.name}",
                         "wall_seconds": wall_seconds}])
        output += f"\n\nindexed run {run_id}"
    return output


def _cmd_perf(args) -> str:
    import json

    from repro.analysis import perf

    if args.check is not None:
        try:
            perf.load_document(args.check)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{args.check}: {exc}")
        return f"{args.check}: valid {perf.SCHEMA} v{perf.SCHEMA_VERSION}"

    if args.gate and args.no_index:
        raise SystemExit("--gate needs the index; drop --no-index")

    start = time.perf_counter()
    doc = perf.run_suite(scale=args.scale, repeats=args.repeats,
                         seed=args.seed,
                         include_gc_heavy=not args.no_gc_heavy,
                         suite_jobs=args.jobs if args.suite else None,
                         suite_scale=args.suite_scale,
                         suite_resolution=args.suite_resolution)
    wall_seconds = time.perf_counter() - start
    output = args.output
    if output is None:
        output = pathlib.Path(__file__).resolve().parents[2] \
            / "benchmarks" / "perf" / "BENCH_chameleon.json"
    pathlib.Path(output).parent.mkdir(parents=True, exist_ok=True)
    perf.write_document(doc, str(output))
    parts = [perf.render_summary(doc), "", f"wrote {output}"]

    run_id = None
    runs_root = None
    if not args.no_index:
        run_id, runs_root = _index_invocation(
            args, "perf", ["perf"],
            params={"scale": args.scale, "seed": args.seed,
                    "repeats": args.repeats,
                    "suite_jobs": args.jobs if args.suite else None},
            results={"benchmarks": {r["name"]: r["wall_seconds"]
                                    for r in doc["benchmarks"]},
                     "ticks": {r["name"]: r["ticks"]
                               for r in doc["benchmarks"]}},
            artifacts={"BENCH_chameleon.json":
                       json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       "summary.txt": perf.render_summary(doc) + "\n"},
            wall_seconds=wall_seconds,
            benchmarks=doc["benchmarks"])
        parts.append(f"indexed run {run_id} under {runs_root}")

    if args.gate:
        from repro.analysis.index import (GateDivergenceError, RunIndex,
                                          gate_document)

        with RunIndex.at_root(runs_root) as index:
            try:
                report = gate_document(
                    index, doc, window=args.gate_window,
                    threshold=args.gate_threshold, exclude_run=run_id)
            except GateDivergenceError as exc:
                raise SystemExit(
                    f"cannot gate against {index.path}: {exc}")
        parts.append("")
        parts.append(report.render())
        if not report.ok:
            print("\n".join(parts))
            raise SystemExit(1)
    return "\n".join(parts)


def _cmd_history(args) -> str:
    from repro.analysis import perf
    from repro.analysis.index import (RunDirectory, RunIndex,
                                      render_history, render_trends)

    runs_root = args.runs_root or default_runs_root()
    if args.ingest is not None:
        import json

        try:
            doc = perf.load_document(args.ingest)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"{args.ingest}: {exc}")
        run = RunDirectory.create(
            runs_root, "perf", command=["history", "--ingest"],
            params={"scale": doc["scale"], "seed": doc["seed"],
                    "repeats": doc["repeats"], "ingested_from": args.ingest},
            config_fingerprint=ToolConfig().fingerprint())
        run.add_artifact("BENCH_chameleon.json",
                         json.dumps(doc, indent=2, sort_keys=True) + "\n")
        manifest_path = run.finalize(
            results={"benchmarks": {r["name"]: r["wall_seconds"]
                                    for r in doc["benchmarks"]}},
            wall_seconds=0.0)
        with RunIndex.at_root(runs_root) as index:
            index.record_run(run.manifest, manifest_path=manifest_path)
            rows = index.index_perf_document(run.run_id, doc)
        return (f"ingested {args.ingest} as run {run.run_id} "
                f"({rows} benchmark row(s))")

    import os

    from repro.analysis.index import INDEX_NAME

    db_path = os.path.join(runs_root, INDEX_NAME)
    if not os.path.exists(db_path):
        raise SystemExit(
            f"no index at {db_path}; run 'perf' or 'experiment' first "
            f"(or point --runs-root at an existing runs root)")
    with RunIndex.at_root(runs_root) as index:
        if args.benchmark is not None:
            return render_history(index, args.benchmark, last=args.last)
        return render_trends(index, window=args.window)


def _cmd_lint(args) -> str:
    from collections import Counter

    from repro.lint import findings as findings_mod
    from repro.lint.drift import load_sessions, three_way_report
    from repro.lint.interproc import analyze_paths, export_signatures
    from repro.lint.rule_checker import check_rules, load_rules_file
    from repro.lint.sarif import emit_sarif
    from repro.lint.usage import lint_paths_detailed
    from repro.rules.builtin import BUILTIN_RULES
    from repro.rules.parser import ParseError

    if args.signatures and not args.paths:
        raise SystemExit("--signatures requires --paths")

    all_findings = []
    if args.rules:
        for rules_path in args.rules:
            try:
                specs = load_rules_file(rules_path)
            except OSError as exc:
                raise SystemExit(f"{rules_path}: {exc}")
            except ParseError as exc:
                raise SystemExit(str(exc))
            all_findings.extend(check_rules(specs))
    else:
        all_findings.extend(check_rules(BUILTIN_RULES))
    if args.no_overlap:
        all_findings = [f for f in all_findings
                        if not f.id.startswith("L1-overlap")
                        and f.id != "L1-shadowed-duplicate"]

    paths = args.paths or []
    usage_findings, predictions, usage_waived = lint_paths_detailed(paths)
    interval_report = analyze_paths(paths)
    all_findings.extend(usage_findings)
    # Both passes report an unreadable or unparsable file with the same
    # finding; keep one.
    all_findings.extend(f for f in interval_report.findings
                        if f not in usage_findings)
    waived = Counter(usage_waived) + Counter(interval_report.waived)
    if args.signatures:
        import json as json_mod
        with open(args.signatures, "w", encoding="utf-8") as handle:
            json_mod.dump({"schema": "chameleon-sig-bundle",
                           "version": 1,
                           "source": " ".join(paths),
                           "signatures": export_signatures(interval_report)},
                          handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.drift is not None:
        try:
            sessions = load_sessions(args.drift)
        except OSError as exc:
            raise SystemExit(f"{args.drift}: {exc}")
        drift_findings, _entries = three_way_report(
            predictions, sessions, interval_report.classify,
            interval_report.proposal_rows())
        all_findings.extend(drift_findings)

    if args.format == "json":
        report = findings_mod.emit_json(all_findings, waived=waived)
    elif args.format == "sarif":
        report = emit_sarif(all_findings)
    else:
        report = findings_mod.emit_text(all_findings, waived=waived)
    threshold = (findings_mod.Severity.WARNING
                 if args.fail_on == "warning"
                 else findings_mod.Severity.ERROR)
    failing = [f for f in all_findings if f.severity >= threshold]
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        report = f"wrote {args.output} ({len(all_findings)} finding(s))"
        if failing:
            # The log must name what failed, not only where it went.
            report += "\n" + findings_mod.emit_text(failing)
    if failing:
        print(report)
        raise SystemExit(1)
    return report


def _cmd_fuzz(args) -> str:
    from repro.verify import diff_trace, record_workload, run_fuzz

    sanitize = not args.no_sanitize
    if args.record is not None:
        traces = record_workload(args.record, scale=args.scale,
                                 seed=args.seed, out_dir=args.save_corpus)
        lines = [f"recorded {len(traces)} trace(s) from "
                 f"{args.record!r} at scale {args.scale}"]
        failed = False
        for trace in traces:
            report = diff_trace(trace, sanitize=sanitize)
            if not report.ok:
                failed = True
                lines.append(report.summary())
        lines.append("recorded-trace diff: "
                     + ("FAILED" if failed else "ok"))
        if args.save_corpus:
            lines.append(f"corpus saved under {args.save_corpus}")
        if failed:
            print("\n".join(lines))
            raise SystemExit(1)
        return "\n".join(lines)

    adts = ["list", "set", "map"] if args.adt == "all" else [args.adt]
    result = run_fuzz(adts, seeds=args.seeds, budget_s=args.budget,
                      n_ops=args.ops, out_dir=args.out,
                      shrink=not args.no_shrink, sanitize=sanitize,
                      log=lambda line: print(f"fuzz: {line}"))
    if not result.ok:
        print(result.summary())
        raise SystemExit(1)
    return result.summary()


def _cmd_compile_trace(args) -> str:
    from repro.runtime.vm import RuntimeEnvironment
    from repro.verify.compile import compile_trace, load_trace_file
    from repro.verify.sanitizer import HeapSanitizer
    from repro.workloads.compiled import (CompiledTraceWorkload,
                                          MultiTenantWorkload)

    programs = []
    for path in args.traces:
        try:
            trace = load_trace_file(path)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(f"{path}: not a readable trace: {exc}")
        programs.append((path, compile_trace(trace)))

    if args.multi_tenant and len(programs) > 1:
        tenants = tuple(program for _, program in programs)
        workloads = [("multi-tenant(" + "+".join(
            pathlib.Path(path).stem for path, _ in programs) + ")",
            MultiTenantWorkload(tenants, "compile-trace-multi-tenant",
                                rounds=args.rounds, perturb=args.perturb,
                                seed=args.seed))]
    else:
        workloads = [
            (path, CompiledTraceWorkload(
                program, f"compile-trace/{pathlib.Path(path).stem}",
                rounds=args.rounds, perturb=args.perturb, impl=args.impl,
                seed=args.seed))
            for path, program in programs]

    # Only simulated observables (ticks, cycle counts, verdicts) appear,
    # so the output of two runs can be byte-diffed.
    lines = []
    failed = False
    for label, workload in workloads:
        vm = RuntimeEnvironment(gc_threshold_bytes=64 * 1024)
        sanitizer = None
        if args.sanitize:
            sanitizer = HeapSanitizer()
            sanitizer.attach(vm)
        workload.run(vm)
        vm.finish()
        line = (f"{label}: rounds={args.rounds} ticks={vm.now} "
                f"gc_cycles={len(vm.timeline.cycles)}")
        if sanitizer is not None:
            count = len(sanitizer.violations)
            line += (" sanitizer=clean" if not count
                     else f" sanitizer={count} violation(s)")
            failed = failed or bool(count)
        lines.append(line)

    if failed:
        print("\n".join(lines))
        raise SystemExit(1)
    return "\n".join(lines)


_COMMANDS = {
    "list": _cmd_list,
    "profile": _cmd_profile,
    "optimize": _cmd_optimize,
    "online": _cmd_online,
    "histogram": _cmd_histogram,
    "experiment": _cmd_experiment,
    "perf": _cmd_perf,
    "history": _cmd_history,
    "lint": _cmd_lint,
    "fuzz": _cmd_fuzz,
    "compile-trace": _cmd_compile_trace,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
