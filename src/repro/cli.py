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
    chameleon-repro perf
    chameleon-repro history
    chameleon-repro history tvla_capture_on --last 10
    chameleon-repro fuzz --adt all --seeds 50
    chameleon-repro fuzz --record tvla --scale 0.05
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
        "perf", help="run the microbenchmarks once each; emits their "
                     "simulated counts as BENCH_chameleon.json")
    perf.add_argument("--output", default=None, metavar="PATH",
                      help="write the JSON document here "
                           "(default benchmarks/perf/BENCH_chameleon.json)")
    perf.add_argument("--runs-root", metavar="DIR", default=None,
                      help="write the manifest'd run directory and index "
                           "the run here (default benchmarks/runs)")
    perf.add_argument("--no-index", action="store_true",
                      help="skip writing a run directory and indexing "
                           "this invocation")

    history = sub.add_parser(
        "history", help="query the cross-run index: the indexed runs, "
                        "or one benchmark's series")
    history.add_argument("benchmark", nargs="?", default=None,
                         help="benchmark name to print the indexed "
                              "series for (default: list the indexed "
                              "runs)")
    history.add_argument("--runs-root", metavar="DIR", default=None,
                         help="runs root holding runs.sqlite (default "
                              "benchmarks/runs)")
    history.add_argument("--last", type=int, default=None, metavar="N",
                         help="show only the newest N runs or rows")

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

    return parser


def _require_positive_scale(args) -> None:
    if not args.scale > 0:
        raise SystemExit("--scale must be > 0")


def _make_workload(args):
    _require_positive_scale(args)
    registry = default_workload_registry()
    try:
        return registry.create(args.workload, seed=args.seed,
                               scale=args.scale)
    except KeyError:
        names = ", ".join(registry.names())
        raise SystemExit(
            f"unknown workload {args.workload!r}; available: {names}")


def _cmd_list(args) -> str:
    registry = default_workload_registry()
    lines = ["bundled workloads:"]
    for name in registry.names():
        workload = registry.create(name)
        lines.append(f"  {name:16s} {type(workload).__doc__.splitlines()[0]}")
    return "\n".join(lines)


def _cmd_profile(args) -> str:
    if args.top < 0:
        raise SystemExit("--top must be >= 0")
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
    if args.top is not None and args.top < 0:
        raise SystemExit("--top must be >= 0")
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

    if args.limit < 0:
        raise SystemExit("--limit must be >= 0")
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
    if args.resolution < 1:
        raise SystemExit("--resolution must be >= 1")
    _require_positive_scale(args)
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
        scheduler_stats = scheduler.stats.as_dict()
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
                     "cache_misses": cache.misses,
                     "scheduler": scheduler_stats},
            artifacts={"output.txt": output + "\n"},
            wall_seconds=wall_seconds,
            # Many runs fold into one experiment wall clock, so the row
            # has no tick count of its own.
            benchmarks=[{"name": f"experiment:{args.name}",
                         "wall_seconds": wall_seconds}])
        output += f"\n\nindexed run {run_id}"
    return output


def _cmd_perf(args) -> str:
    from repro.analysis import perf

    start = time.perf_counter()
    doc = perf.run_suite()
    wall_seconds = time.perf_counter() - start
    output = pathlib.Path(args.output) if args.output else (
        pathlib.Path(__file__).resolve().parents[2]
        / "benchmarks" / "perf" / "BENCH_chameleon.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    perf.write_document(doc, str(output))
    summary = perf.render_summary(doc)
    parts = [summary, "", f"wrote {output}"]
    if not args.no_index:
        run_id, runs_root = _index_invocation(
            args, "perf", ["perf"],
            params={"scale": perf.SCALE, "seed": perf.SEED},
            results={"ticks": {r["name"]: r["ticks"]
                               for r in doc["benchmarks"]}},
            artifacts={"BENCH_chameleon.json": output.read_text(),
                       "summary.txt": summary + "\n"},
            wall_seconds=wall_seconds,
            benchmarks=doc["benchmarks"])
        parts.append(f"indexed run {run_id} under {runs_root}")
    return "\n".join(parts)


def _cmd_history(args) -> str:
    import os

    from repro.analysis.index import (INDEX_NAME, RunIndex, render_history,
                                      render_runs)

    if args.last is not None and args.last < 1:
        raise SystemExit("--last must be >= 1")
    runs_root = args.runs_root or default_runs_root()
    db_path = os.path.join(runs_root, INDEX_NAME)
    if not os.path.exists(db_path):
        raise SystemExit(
            f"no index at {db_path}; run 'perf' or 'experiment' first "
            f"(or point --runs-root at an existing runs root)")
    with RunIndex.at_root(runs_root) as index:
        if args.benchmark is not None:
            return render_history(index, args.benchmark, last=args.last)
        return render_runs(index, last=args.last)


def _cmd_lint(args) -> str:
    from collections import Counter

    from repro.lint import findings as findings_mod
    from repro.lint.drift import load_sessions, three_way_report
    from repro.lint.interproc import analyze_paths
    from repro.lint.rule_checker import check_rules, load_rules_file
    from repro.lint.sarif import emit_sarif
    from repro.lint.usage import lint_paths_detailed
    from repro.rules.builtin import BUILTIN_RULES
    from repro.rules.parser import ParseError

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
        _require_positive_scale(args)
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
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    output = _COMMANDS[args.command](args)
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
