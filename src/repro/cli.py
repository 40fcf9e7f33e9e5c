"""Command-line interface: ``python -m repro <command>``.

Commands
--------
* ``list`` — discover registered components (benchmarks, predictors,
  BR configs, variants); stable-sorted output.
* ``config`` — print the fully-resolved effective configuration with
  per-field provenance (default / file / env / flag).
* ``run BENCH`` — simulate one benchmark under a configuration.
* ``compare BENCH [BENCH...]`` — baseline vs Branch Runahead table
  (``--jobs`` runs cells through the parallel experiment runner).
* ``bench`` — time the experiment matrix and emit a ``BENCH_run.json``
  perf report; fails if the fast path drifts from the reference path
  (``--strict`` also fails on committed-baseline throughput warnings).
* ``baseline record`` / ``baseline check`` — write, then tolerance-gate,
  one committed JSON regression baseline per benchmark (``baselines/``).
* ``trend`` — per-pass/per-cell trajectory over the ``BENCH_*.json``
  family; ``--fail-on-regression`` gates on the best recorded run.
* ``sweep report`` / ``sweep watch`` / ``sweep resume`` — merge a
  ``repro-journal-v1`` sweep journal (``compare``/``bench --journal``)
  into a drift-audited ``repro-sweep-report-v1``, tail a growing
  journal's progress live, or re-run an interrupted sweep replaying
  already-landed cells from the content-addressed result store.
* ``stats BENCH`` — dump the full unified stat registry as JSON.
* ``trace BENCH`` — capture a pipeline event trace (Chrome/JSONL).
* ``chains BENCH`` — show the dependence chains extracted for a benchmark.
* ``simpoints BENCH`` — SimPoint-style region selection for a benchmark.

Every command resolves its knobs through :mod:`repro.config` with layered
precedence — built-in defaults < config file (``--config-file`` /
``REPRO_CONFIG``) < ``REPRO_*`` env vars < explicit flags — and all
component choices (``--predictor``, ``--config``, ``--variants``,
benchmark names) come from the live registries, so a component registered
by a plug-in module is immediately addressable.

``run`` and ``compare`` accept ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import RunConfig, ResolvedConfig, resolve_config
from repro.core.config import UARCH_CONFIGS
from repro.observe import baseline as observe_baseline
from repro.observe import journal as observe_journal
from repro.observe import sweep_report as observe_sweep
from repro.observe import trend as observe_trend
from repro.predictors.registry import PREDICTORS
from repro.sched import EXECUTOR_CHOICES
from repro.sim import bench, experiments
from repro.sim.results import ipc_improvement, mpki_improvement
from repro.sim.sampling import select_simpoints
from repro.sim.simulator import simulate
from repro.sim.variants import variant_names
from repro.telemetry import Tracer
from repro.workloads import suite

LIST_KINDS = ("benchmarks", "predictors", "configs", "variants", "all")


def _config_choices() -> List[str]:
    return ["none"] + UARCH_CONFIGS.names(sort=True)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Branch Runahead (MICRO 2021) reproduction")
    parser.add_argument("--config-file", default=None, metavar="PATH",
                        help="TOML/JSON config file (overrides the "
                        "REPRO_CONFIG env var)")
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser(
        "list", help="list registered components (stable-sorted)")
    list_cmd.add_argument("--kind", choices=LIST_KINDS,
                          default="benchmarks",
                          help="component family to list "
                          "(default: benchmarks)")

    config_cmd = sub.add_parser(
        "config", help="print the resolved effective configuration")
    config_cmd.add_argument("--instructions", type=int, default=None)
    config_cmd.add_argument("--warmup", type=int, default=None)
    config_cmd.add_argument("--jobs", type=int, default=None)
    config_cmd.add_argument("--result-cache-size", type=int, default=None)
    config_cmd.add_argument("--trace-cache-size", type=int, default=None)
    config_cmd.add_argument("--trace-cache-dir", default=None)
    config_cmd.add_argument("--variant", default=None)
    config_cmd.add_argument("--batch-min-lanes", type=int, default=None,
                            help="minimum same-geometry TAGE lanes before "
                            "batched replay uses the columnar kernel "
                            "(0 = auto-calibrate)")
    config_cmd.add_argument("--executor", default=None,
                            choices=EXECUTOR_CHOICES,
                            help="sweep executor backend "
                            "('auto' picks inline/pool by job count)")
    config_cmd.add_argument("--result-store-dir", default=None,
                            help="content-addressed result store "
                            "directory (enables sweep resume)")
    config_cmd.add_argument("--json", action="store_true",
                            help="emit config + provenance as JSON")

    def add_run_args(p):
        p.add_argument("benchmark", choices=sorted(suite.all_names()))
        p.add_argument("--instructions", type=int, default=None,
                       help="measured region length "
                       "(default: resolved config)")
        p.add_argument("--warmup", type=int, default=None,
                       help="training-only prefix "
                       "(default: resolved config)")

    run = sub.add_parser("run", help="simulate one benchmark")
    add_run_args(run)
    run.add_argument("--config", choices=_config_choices(), default=None,
                     help="BR configuration (default: resolved config "
                     "'variant' field)")
    run.add_argument("--predictor", choices=PREDICTORS.names(sort=True),
                     default="tage64")
    run.add_argument("--json", action="store_true",
                     help="emit the full stat registry as JSON")

    compare = sub.add_parser(
        "compare", help="baseline vs Branch Runahead table")
    compare.add_argument("benchmarks", nargs="*",
                         default=None, metavar="BENCH")
    compare.add_argument("--config", choices=UARCH_CONFIGS.names(sort=True),
                         default=None,
                         help="BR configuration (default: resolved config "
                         "'variant' field)")
    compare.add_argument("--predictor", choices=PREDICTORS.names(sort=True),
                         default="tage64",
                         help="baseline predictor for both sides")
    compare.add_argument("--predictors", nargs="+", default=None,
                         choices=PREDICTORS.names(sort=True),
                         metavar="PREDICTOR",
                         help="sweep mode: one MPKI column per predictor "
                         "(no BR side; implies --mpki-only, so grouped "
                         "cells ride the batched replay kernel)")
    compare.add_argument("--instructions", type=int, default=None)
    compare.add_argument("--warmup", type=int, default=None)
    compare.add_argument("--jobs", type=int, default=None,
                         help="parallel worker processes "
                         "(default: resolved config, serial when unset)")
    compare.add_argument("--mpki-only", action="store_true",
                         help="request branch outcomes only: baseline "
                         "cells take the MPKI replay fast path and no "
                         "IPC columns are printed")
    compare.add_argument("--journal", default=None, metavar="PATH",
                         help="flight-record the sweep as a "
                         "repro-journal-v1 JSONL file (see "
                         "`repro sweep report`)")
    compare.add_argument("--order-from", default=None, metavar="PATH",
                         help="schedule cells longest-first using "
                         "wall_seconds from a prior journal of the same "
                         "sweep (better parallel packing)")
    compare.add_argument("--executor", default=None,
                         choices=EXECUTOR_CHOICES,
                         help="sweep executor backend (default: resolved "
                         "config; 'auto' picks inline/pool by job count)")
    compare.add_argument("--progress", action="store_true",
                         help="force the live progress line on stderr "
                         "(auto-enabled on a tty)")
    compare.add_argument("--json", action="store_true",
                         help="emit one JSON object per benchmark")

    bench_cmd = sub.add_parser(
        "bench", help="time the experiment matrix; write BENCH_run.json")
    bench_cmd.add_argument("--quick", action="store_true",
                           help="small CI smoke matrix")
    bench_cmd.add_argument("--benchmarks", nargs="*", default=None,
                           metavar="BENCH",
                           help="benchmarks to time (default: full suite)")
    bench_cmd.add_argument("--variants", nargs="*", default=None,
                           choices=sorted(variant_names()),
                           help="variants to time")
    bench_cmd.add_argument("--instructions", type=int, default=None)
    bench_cmd.add_argument("--warmup", type=int, default=None)
    bench_cmd.add_argument("--jobs", type=int, default=None,
                           help="parallel worker processes "
                           "(default: resolved config, serial when unset)")
    bench_cmd.add_argument("--out", default="BENCH_run.json",
                           help="report path (default: BENCH_run.json)")
    bench_cmd.add_argument("--baseline", default=None, metavar="PATH",
                           help="committed report (e.g. BENCH_seed.json) "
                           "to diff uops/sec against, warn-only")
    bench_cmd.add_argument("--strict", action="store_true",
                           help="promote --baseline throughput warnings "
                           "(and an unreadable baseline) to a nonzero "
                           "exit")
    bench_cmd.add_argument("--baseline-tolerance", type=float,
                           default=None, metavar="FRACTION",
                           help="relative throughput drop tolerated "
                           "against --baseline (default: "
                           f"{bench.BASELINE_WARN_FRACTION})")
    bench_cmd.add_argument("--journal", default=None, metavar="PATH",
                           help="flight-record the optimized pass as a "
                           "repro-journal-v1 JSONL file")
    bench_cmd.add_argument("--progress", action="store_true",
                           help="force the live progress line on stderr "
                           "(auto-enabled on a tty)")
    bench_cmd.add_argument("--executor", default=None,
                           choices=EXECUTOR_CHOICES,
                           help="sweep executor backend for the optimized "
                           "pass (default: resolved config)")

    def add_matrix_args(p):
        p.add_argument("--quick", action="store_true",
                       help="CI smoke matrix (same cells as bench "
                       "--quick)")
        p.add_argument("--benchmarks", nargs="*", default=None,
                       metavar="BENCH",
                       help="benchmarks to cover (default: quick subset)")
        p.add_argument("--variants", nargs="*", default=None,
                       choices=sorted(variant_names()),
                       help="variants per benchmark "
                       "(default: quick subset)")
        p.add_argument("--instructions", type=int, default=None)
        p.add_argument("--warmup", type=int, default=None)
        p.add_argument("--jobs", type=int, default=None,
                       help="parallel worker processes "
                       "(default: resolved config)")

    baseline_cmd = sub.add_parser(
        "baseline",
        help="committed per-benchmark regression baselines")
    baseline_sub = baseline_cmd.add_subparsers(dest="action",
                                               required=True)
    record_cmd = baseline_sub.add_parser(
        "record",
        help="run the matrix and write one baseline JSON per benchmark")
    add_matrix_args(record_cmd)
    record_cmd.add_argument("--dir", default=observe_baseline.BASELINE_DIR,
                            help="baseline directory "
                            "(default: baselines/)")
    check_cmd = baseline_sub.add_parser(
        "check",
        help="re-run and tolerance-gate against committed baselines")
    add_matrix_args(check_cmd)
    check_cmd.add_argument("--dir", default=observe_baseline.BASELINE_DIR,
                           help="baseline directory (default: baselines/)")
    check_cmd.add_argument("--timing-tolerance", type=float,
                           default=observe_baseline.
                           DEFAULT_TIMING_TOLERANCE,
                           help="relative host-timing slowdown band, "
                           "warn-only (default: 1.0 = 100%%)")
    check_cmd.add_argument("--json", action="store_true",
                           help="emit the full check report as JSON")
    check_cmd.add_argument("--github", action="store_true",
                           help="emit GitHub ::error/::warning workflow "
                           "annotations")
    check_cmd.add_argument("--report", default=None, metavar="PATH",
                           help="also write the JSON report to PATH")

    trend_cmd = sub.add_parser(
        "trend",
        help="per-benchmark trajectory over the BENCH_*.json family")
    trend_cmd.add_argument("reports", nargs="*", metavar="BENCH_JSON",
                           help="bench reports oldest-first "
                           "(default: ./BENCH_*.json sorted by name)")
    trend_cmd.add_argument("--threshold", type=float,
                           default=observe_trend.DEFAULT_THRESHOLD,
                           help="relative drop vs the best recorded run "
                           "that counts as a regression "
                           "(default: 0.5)")
    trend_cmd.add_argument("--fail-on-regression", action="store_true",
                           help="exit nonzero when a pass regressed")
    trend_cmd.add_argument("--json", action="store_true",
                           help="emit the trend report as JSON")
    trend_cmd.add_argument("--report", default=None, metavar="PATH",
                           help="also write the JSON report to PATH")

    sweep_cmd = sub.add_parser(
        "sweep",
        help="sweep flight-recorder journals: drift-audited reports "
        "and live progress")
    sweep_sub = sweep_cmd.add_subparsers(dest="action", required=True)
    sweep_report_cmd = sweep_sub.add_parser(
        "report",
        help="merge a repro-journal-v1 journal into a drift-audited "
        "sweep report (nonzero exit on failed cells / worker drift / "
        "incomplete sweep)")
    sweep_report_cmd.add_argument("journal", metavar="JOURNAL",
                                  help="journal written by "
                                  "compare/bench --journal")
    sweep_report_cmd.add_argument("--slowest", type=int,
                                  default=observe_sweep.DEFAULT_SLOWEST,
                                  help="slowest-cell table length "
                                  "(default: "
                                  f"{observe_sweep.DEFAULT_SLOWEST})")
    sweep_report_cmd.add_argument("--json", action="store_true",
                                  help="emit the full report as JSON")
    sweep_report_cmd.add_argument("--github", action="store_true",
                                  help="emit GitHub ::error/::warning "
                                  "workflow annotations")
    sweep_report_cmd.add_argument("--report", default=None,
                                  metavar="PATH",
                                  help="also write the JSON report to "
                                  "PATH")
    sweep_watch_cmd = sweep_sub.add_parser(
        "watch",
        help="tail a growing journal and render live sweep progress")
    sweep_watch_cmd.add_argument("journal", metavar="JOURNAL")
    sweep_watch_cmd.add_argument("--interval", type=float, default=2.0,
                                 help="poll interval in seconds "
                                 "(default: 2)")
    sweep_watch_cmd.add_argument("--once", action="store_true",
                                 help="print one snapshot and exit")
    sweep_resume_cmd = sweep_sub.add_parser(
        "resume",
        help="re-run an interrupted journaled sweep: cells whose results "
        "already landed in the result store are replayed from disk, only "
        "the remainder executes")
    sweep_resume_cmd.add_argument("journal", metavar="JOURNAL",
                                  help="journal of the interrupted sweep")
    sweep_resume_cmd.add_argument("--jobs", type=int, default=None,
                                  help="parallel worker processes for the "
                                  "resumed run (default: resolved config)")
    sweep_resume_cmd.add_argument("--executor", default=None,
                                  choices=EXECUTOR_CHOICES,
                                  help="executor backend for the resumed "
                                  "run (default: resolved config)")
    sweep_resume_cmd.add_argument("--result-store-dir", default=None,
                                  metavar="DIR",
                                  help="result store directory (default: "
                                  "the interrupted sweep's configured "
                                  "store, else REPRO_RESULT_STORE_DIR)")
    sweep_resume_cmd.add_argument("--json", action="store_true",
                                  help="emit the resume summary as JSON")

    stats = sub.add_parser(
        "stats", help="dump the unified stat registry as JSON")
    add_run_args(stats)
    stats.add_argument("--config", choices=_config_choices(), default=None)
    stats.add_argument("--predictor", choices=PREDICTORS.names(sort=True),
                       default="tage64")
    stats.add_argument("--flat", action="store_true",
                       help="flat dot-separated names instead of a tree")

    trace = sub.add_parser(
        "trace", help="capture a pipeline event trace")
    add_run_args(trace)
    trace.add_argument("--config", choices=_config_choices(), default=None)
    trace.add_argument("--predictor", choices=PREDICTORS.names(sort=True),
                       default="tage64")
    trace.add_argument("--out", default="trace.json",
                       help="output path (default: trace.json)")
    trace.add_argument("--format", choices=["chrome", "jsonl"],
                       default="chrome",
                       help="chrome://tracing JSON or JSON Lines")
    trace.add_argument("--capacity", type=int, default=262_144,
                       help="event ring-buffer size (oldest evict)")

    chains = sub.add_parser(
        "chains", help="show the dependence chains a benchmark produces")
    add_run_args(chains)

    simpoints = sub.add_parser(
        "simpoints", help="SimPoint-style region selection")
    simpoints.add_argument("benchmark", choices=sorted(suite.all_names()))
    simpoints.add_argument("--total", type=int, default=60_000)
    simpoints.add_argument("--interval", type=int, default=10_000)

    return parser


def _resolve_from_args(args) -> ResolvedConfig:
    """Layered resolution with every flag this command carries."""
    flag_fields = ("instructions", "warmup", "jobs", "result_cache_size",
                   "trace_cache_size", "trace_cache_dir", "variant",
                   "batch_min_lanes", "executor", "result_store_dir")
    flags = {field: getattr(args, field, None) for field in flag_fields}
    return resolve_config(flags=flags,
                          config_file=getattr(args, "config_file", None))


def _br_config_name(args, run_config: RunConfig,
                    allow_none: bool) -> Optional[str]:
    """The BR config for run/compare/stats/trace: flag, else cfg.variant."""
    name = args.config if args.config is not None else run_config.variant
    if allow_none and name == "none":
        return None
    UARCH_CONFIGS.entry(name)  # raises with suggestions if unknown
    return name


def _simulate_from_args(args, tracer: Optional[Tracer] = None):
    """Shared ``run``/``stats``/``trace`` driver."""
    run_config = _resolve_from_args(args).config
    program = suite.load(args.benchmark)
    config_name = _br_config_name(args, run_config, allow_none=True)
    return simulate(
        program, instructions=run_config.instructions,
        warmup=run_config.warmup,
        predictor=PREDICTORS.get(args.predictor)(),
        br_config=UARCH_CONFIGS.get(config_name)() if config_name else None,
        tracer=tracer)


def _cmd_list(args) -> int:
    kinds = LIST_KINDS[:-1] if args.kind == "all" else (args.kind,)
    for index, kind in enumerate(kinds):
        if index:
            print()
        if len(kinds) > 1:
            print(f"[{kind}]")
        if kind == "benchmarks":
            print(f"{'name':14s} {'suite':8s} {'static uops':>12s}")
            for name in sorted(suite.all_names()):
                benchmark = suite.get(name)
                program = suite.load(name)
                print(f"{benchmark.name:14s} {benchmark.suite:8s} "
                      f"{len(program):>12d}")
        elif kind == "predictors":
            print(f"{'name':14s} {'mpki-replay':>11s}  description")
            for name in PREDICTORS.names(sort=True):
                meta = PREDICTORS.meta(name)
                replay = "yes" if meta.get("predictor_only") else "no"
                print(f"{name:14s} {replay:>11s}  "
                      f"{meta.get('description', '')}")
        elif kind == "configs":
            print(f"{'name':14s} {'storage':>10s}")
            for name in UARCH_CONFIGS.names(sort=True):
                storage = UARCH_CONFIGS.meta(name).get("storage", "?")
                print(f"{name:14s} {storage:>10s}")
        elif kind == "variants":
            print(f"{'name':20s} {'mpki-replay':>11s}")
            for name in sorted(variant_names()):
                replay = "yes" if experiments.is_predictor_only(name) \
                    else "no"
                print(f"{name:20s} {replay:>11s}")
    return 0


def _cmd_config(args) -> int:
    resolved = _resolve_from_args(args)
    if args.json:
        print(json.dumps({
            "config": resolved.config.to_dict(),
            "provenance": resolved.provenance,
            "config_file": resolved.config_file,
        }, indent=2, sort_keys=True))
        return 0
    source = resolved.config_file or "(none)"
    print(f"effective configuration  [config file: {source}]")
    print(f"  {'field':20s} {'value':>16s}  source")
    for field in RunConfig.field_names():
        value = getattr(resolved.config, field)
        shown = "-" if value is None else str(value)
        print(f"  {field:20s} {shown:>16s}  {resolved.provenance[field]}")
    print("\nprecedence: default < config file < REPRO_* env < flag")
    return 0


def _cmd_run(args) -> int:
    result = _simulate_from_args(args)
    if args.json:
        print(result.to_json())
        return 0
    print(result.summary())
    if result.runahead is not None:
        breakdown = result.runahead.stats.breakdown()
        parts = ", ".join(f"{key} {100 * value:.1f}%"
                          for key, value in breakdown.items())
        print(f"prediction breakdown: {parts}")
    return 0


def _progress_callback(force: bool = False):
    """Live sweep progress on stderr; ``None`` when neither forced nor a tty.

    On a tty the line redraws in place (``\\r`` + erase-to-EOL); when
    forced onto a pipe each snapshot prints on its own line so logs stay
    readable.  The returned callable carries a ``finish()`` attribute
    that terminates the in-place line with a newline.
    """
    tty = sys.stderr.isatty()
    if not (force or tty):
        return None

    def callback(snapshot: dict) -> None:
        line = observe_journal.format_progress(snapshot)
        if tty:
            print(f"\r\x1b[K{line}", end="", file=sys.stderr, flush=True)
        else:
            print(line, file=sys.stderr, flush=True)

    def finish() -> None:
        if tty:
            print(file=sys.stderr, flush=True)

    callback.finish = finish
    return callback


def _compare_predictor_sweep(args, run_config, names) -> int:
    """``compare --predictors``: benchmarks x predictors MPKI sweep.

    Every cell is predictor-only, so ``run_cells`` fuses each
    benchmark's cells into one task that replays them together over a
    single branch-stream pass (the batch path ``Session.run_batch``
    shares); the table prints one MPKI column per predictor instead of
    the base/BR pair.
    """
    predictors = list(dict.fromkeys(args.predictors))
    dropped = len(args.predictors) - len(predictors)
    if dropped:
        print(f"note: dropped {dropped} duplicate predictor "
              f"column{'s' if dropped != 1 else ''} (each configuration "
              f"is swept once)", file=sys.stderr)
    tokens = [experiments.spec_variant(name) for name in predictors]
    cells = [(name, token) for name in names for token in tokens]
    progress = _progress_callback(force=args.progress)
    try:
        rows = experiments.run_cells(cells,
                                     instructions=run_config.instructions,
                                     warmup=run_config.warmup,
                                     jobs=args.jobs,
                                     outputs="mpki",
                                     journal=args.journal,
                                     progress=progress,
                                     order_from=args.order_from,
                                     executor=args.executor)
    finally:
        if progress is not None:
            progress.finish()
    failed = [row for row in rows if not row.get("ok", True)]
    for row in failed:
        error = row["error"]
        print(f"repro compare: error: {row['benchmark']}/{row['variant']} "
              f"failed: {error['type']}: {error['message']}",
              file=sys.stderr)
    width = max(8, max(len(name) for name in predictors))
    if not args.json:
        print(f"{'benchmark':14s} " + " ".join(
            f"{name:>{width}s}" for name in predictors))
    step = len(tokens)
    for offset in range(0, len(rows), step):
        group = rows[offset:offset + step]
        name = group[0]["benchmark"]
        mpkis = [None if row["payload"] is None else row["payload"]["mpki"]
                 for row in group]
        if args.json:
            print(json.dumps(
                {"benchmark": name,
                 "mpki": dict(zip(predictors, mpkis))},
                sort_keys=True))
        else:
            print(f"{name:14s} " + " ".join(
                f"{'-':>{width}s}" if mpki is None
                else f"{mpki:>{width}.2f}" for mpki in mpkis))
    return 1 if failed else 0


def _cmd_compare(args) -> int:
    run_config = _resolve_from_args(args).config
    names = args.benchmarks or suite.BENCHMARK_NAMES
    if args.predictors:
        return _compare_predictor_sweep(args, run_config, names)
    config_name = _br_config_name(args, run_config, allow_none=False)
    base_token = experiments.spec_variant(args.predictor)
    br_token = experiments.spec_variant(args.predictor, config_name)
    # benchmark-major cells through the experiment runner: with --jobs the
    # matrix fans out over worker processes, and either way the shared
    # trace cache emulates each benchmark once for both sides
    cells = [(name, token) for name in names
             for token in (base_token, br_token)]
    outputs = "mpki" if args.mpki_only else "full"
    progress = _progress_callback(force=args.progress)
    try:
        rows = experiments.run_cells(cells,
                                     instructions=run_config.instructions,
                                     warmup=run_config.warmup,
                                     jobs=args.jobs,
                                     outputs=outputs,
                                     journal=args.journal,
                                     progress=progress,
                                     order_from=args.order_from,
                                     executor=args.executor)
    finally:
        if progress is not None:
            progress.finish()
    failed = [row for row in rows if not row.get("ok", True)]
    for row in failed:
        error = row["error"]
        print(f"repro compare: error: {row['benchmark']}/{row['variant']} "
              f"failed: {error['type']}: {error['message']}",
              file=sys.stderr)
    if not args.json:
        header = (f"{'benchmark':14s} {'base MPKI':>10s} {'BR MPKI':>10s} "
                  f"{'ΔMPKI':>8s}")
        if not args.mpki_only:
            header += (f" {'base IPC':>9s} {'BR IPC':>9s} {'ΔIPC':>8s}")
        print(header)
    for base_row, br_row in zip(rows[::2], rows[1::2]):
        name = base_row["benchmark"]
        base = base_row["payload"]
        variant = br_row["payload"]
        if base is None or variant is None:
            continue  # failed cell already reported on stderr
        mpki_delta = mpki_improvement(base["mpki"], variant["mpki"])
        if args.json:
            row = {
                "benchmark": name,
                "predictor": args.predictor,
                "config": config_name,
                "baseline": {"mpki": base["mpki"]},
                "branch_runahead": {"mpki": variant["mpki"]},
                "mpki_improvement_pct": mpki_delta,
            }
            if not args.mpki_only:
                row["baseline"]["ipc"] = base["ipc"]
                row["branch_runahead"]["ipc"] = variant["ipc"]
                row["ipc_improvement_pct"] = ipc_improvement(
                    base["ipc"], variant["ipc"])
            print(json.dumps(row, sort_keys=True))
        else:
            line = (f"{name:14s} {base['mpki']:>10.2f} "
                    f"{variant['mpki']:>10.2f} "
                    f"{mpki_delta:>+7.1f}%")
            if not args.mpki_only:
                ipc_delta = ipc_improvement(base["ipc"], variant["ipc"])
                line += (f" {base['ipc']:>9.3f} "
                         f"{variant['ipc']:>9.3f} {ipc_delta:>+7.1f}%")
            print(line)
    return 1 if failed else 0


def _cmd_bench(args) -> int:
    progress = _progress_callback(force=args.progress)
    try:
        report = bench.run_bench(benchmarks=args.benchmarks,
                                 variants=args.variants,
                                 instructions=args.instructions,
                                 warmup=args.warmup,
                                 jobs=args.jobs,
                                 quick=args.quick,
                                 journal=args.journal,
                                 progress=progress,
                                 executor=args.executor)
    finally:
        if progress is not None:
            progress.finish()
    try:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as error:
        print(f"repro bench: error: cannot write {args.out}: {error}",
              file=sys.stderr)
        return 1
    print(bench.format_report(report))
    print(f"report written to {args.out}")
    baseline_failed = False
    if args.baseline:
        try:
            with open(args.baseline) as handle:
                baseline_report = json.load(handle)
        except (OSError, ValueError) as error:
            severity = "error" if args.strict else "warning"
            print(f"repro bench: {severity}: cannot read baseline "
                  f"{args.baseline}: {error}", file=sys.stderr)
            baseline_failed = args.strict
        else:
            tolerance = args.baseline_tolerance \
                if args.baseline_tolerance is not None \
                else bench.BASELINE_WARN_FRACTION
            warnings = bench.compare_to_baseline(report, baseline_report,
                                                 fraction=tolerance)
            severity = "error" if args.strict else "warning"
            for warning in warnings:
                print(f"repro bench: {severity}: {warning}",
                      file=sys.stderr)
            if not warnings:
                print(f"throughput within {100 * tolerance:.0f}% of "
                      f"{args.baseline}")
            elif args.strict:
                baseline_failed = True
    if not report["drift"]["ok"]:
        print("repro bench: error: fast-path results drifted from the "
              "reference path", file=sys.stderr)
        return 1
    return 1 if baseline_failed else 0


def _matrix_kwargs(args) -> dict:
    """Shared ``baseline record``/``check`` matrix selection."""
    return dict(benchmarks=args.benchmarks, variants=args.variants,
                instructions=args.instructions, warmup=args.warmup,
                jobs=args.jobs, quick=args.quick)


def _cmd_baseline(args) -> int:
    if args.action == "record":
        report = observe_baseline.record_baselines(
            out_dir=args.dir, **_matrix_kwargs(args))
        print(f"recorded {len(report['written'])} baseline(s) "
              f"({len(report['variants'])} variant(s) each, "
              f"{report['instructions']} instructions "
              f"+{report['warmup']} warmup) under {args.dir}/")
        for path in report["written"]:
            print(f"  {path}")
        return 0

    report = observe_baseline.check_baselines(
        baseline_dir=args.dir, timing_tolerance=args.timing_tolerance,
        **_matrix_kwargs(args))
    if args.report:
        try:
            with open(args.report, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"repro baseline: error: cannot write {args.report}: "
                  f"{error}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(observe_baseline.format_check_report(report))
    if args.github:
        for line in observe_baseline.github_annotations(report):
            print(line)
    return 0 if report["ok"] else 1


def _cmd_trend(args) -> int:
    paths = args.reports or observe_trend.default_report_paths()
    if not paths:
        print("repro trend: error: no BENCH_*.json reports found "
              "(pass paths explicitly or run `repro bench` first)",
              file=sys.stderr)
        return 2
    try:
        entries = observe_trend.load_reports(paths)
        trend = observe_trend.build_trend(entries,
                                          threshold=args.threshold)
    except ValueError as error:
        print(f"repro trend: error: {error}", file=sys.stderr)
        return 2
    if args.report:
        try:
            with open(args.report, "w") as handle:
                json.dump(trend, handle, indent=2, sort_keys=True)
                handle.write("\n")
        except OSError as error:
            print(f"repro trend: error: cannot write {args.report}: "
                  f"{error}", file=sys.stderr)
            return 1
    if args.json:
        print(json.dumps(trend, indent=2, sort_keys=True))
    else:
        print(observe_trend.format_trend_report(trend))
    if args.fail_on_regression and not trend["ok"]:
        return 1
    return 0


def _cmd_sweep(args) -> int:
    if args.action == "report":
        try:
            journal = observe_journal.read_journal(args.journal)
            report = observe_sweep.build_sweep_report(
                journal, slowest=args.slowest)
        except (OSError, ValueError) as error:
            print(f"repro sweep: error: {error}", file=sys.stderr)
            return 2
        if args.report:
            try:
                with open(args.report, "w") as handle:
                    json.dump(report, handle, indent=2, sort_keys=True)
                    handle.write("\n")
            except OSError as error:
                print(f"repro sweep: error: cannot write {args.report}: "
                      f"{error}", file=sys.stderr)
                return 1
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(observe_sweep.format_sweep_report(report))
        if args.github:
            for line in observe_sweep.github_annotations(report):
                print(line)
        if report["ok"]:
            return 0
        # exit 3 = incomplete but resumable (no failed cells, no drift):
        # a killed sweep whose remainder `repro sweep resume` can run
        if report["sweep"].get("resumable") \
                and not report["drift"]["violations"]:
            if report["sweep"].get("resume_command"):
                print(f"resume with: {report['sweep']['resume_command']}",
                      file=sys.stderr)
            return 3
        return 1

    if args.action == "resume":
        return _cmd_sweep_resume(args)

    # watch: poll the journal until the sweep finishes (or forever, for
    # a sweep that died — ^C is the way out, same as `tail -f`)
    import time as _time
    while True:
        try:
            journal = observe_journal.read_journal(args.journal)
        except FileNotFoundError:
            if args.once:
                print(f"repro sweep: error: {args.journal}: journal not "
                      "found", file=sys.stderr)
                return 2
            _time.sleep(args.interval)
            continue
        except (OSError, ValueError) as error:
            print(f"repro sweep: error: {error}", file=sys.stderr)
            return 2
        snapshot = observe_sweep.journal_snapshot(journal)
        print(observe_sweep.format_watch_line(snapshot))
        if journal["complete"]:
            return 0
        if args.once:
            # same convention as `sweep report`: 3 = incomplete (still
            # running or killed), distinguishable from hard failures
            return 3
        _time.sleep(args.interval)


def _cmd_sweep_resume(args) -> int:
    """``repro sweep resume JOURNAL``: finish an interrupted sweep.

    The journal's ``sweep_started`` manifest rebuilds the exact
    :class:`~repro.config.RunConfig` of the interrupted run, so every
    result-store key resolves identically; cells whose results already
    landed replay from the store, only the remainder executes.  The
    resumed run is itself journaled to ``JOURNAL.resume``.
    """
    import os

    from repro.sched import ResultStore
    from repro.session import Session

    try:
        journal = observe_journal.read_journal(args.journal)
    except (OSError, ValueError) as error:
        print(f"repro sweep: error: {error}", file=sys.stderr)
        return 2
    sweep = journal["events"][0]
    manifest = sweep.get("manifest")
    if not manifest or not manifest.get("config"):
        print(f"repro sweep: error: {args.journal} carries no sweep "
              "manifest; cannot reconstruct the run configuration",
              file=sys.stderr)
        return 2
    cells = [tuple(cell) for cell in (sweep.get("cells") or [])]
    if not cells:
        print(f"repro sweep: error: {args.journal} records no cell plan",
              file=sys.stderr)
        return 2
    known = set(RunConfig.field_names())
    fields = {key: value for key, value in manifest["config"].items()
              if key in known}
    try:
        config = RunConfig(**fields).validate()
    except (TypeError, ValueError) as error:
        print(f"repro sweep: error: journal manifest config is not "
              f"loadable: {error}", file=sys.stderr)
        return 2
    store_dir = (args.result_store_dir or config.result_store_dir
                 or os.environ.get("REPRO_RESULT_STORE_DIR") or None)
    if store_dir is None:
        print("repro sweep: error: no result store to resume from "
              "(the sweep ran without result_store_dir and neither "
              "--result-store-dir nor REPRO_RESULT_STORE_DIR is set)",
              file=sys.stderr)
        return 2
    if config.result_store_dir is None:
        config = config.replace(result_store_dir=store_dir)
    session = Session(config)
    if store_dir != config.result_store_dir:
        # store moved since the sweep ran: keys keep the recorded
        # config's fingerprint, reads/writes go to the new directory
        session.result_store = ResultStore(store_dir)
    landed_before = sum(1 for event in journal["events"]
                        if event["event"] == "cell_finished")
    jobs = args.jobs if args.jobs is not None else config.jobs
    resume_journal = f"{args.journal}.resume"
    progress = None if args.json else _progress_callback()
    try:
        rows = session.run_cells(cells, jobs=jobs,
                                 outputs=sweep.get("outputs") or "full",
                                 journal=resume_journal,
                                 executor=args.executor,
                                 progress=progress)
    finally:
        if progress is not None:
            progress.finish()
    stats = session.last_sweep or {}
    resumed = stats.get("cells_resumed_from_store", 0)
    failed = [row for row in rows if not row.get("ok", True)]
    digests = {f"{row['benchmark']}/{row['variant']}":
               bench.payload_digest(row["payload"])
               for row in rows if row.get("payload") is not None}
    summary = {
        "journal": args.journal,
        "resume_journal": resume_journal,
        "result_store_dir": store_dir,
        "cells_total": len(cells),
        "cells_landed_before": landed_before,
        "cells_resumed_from_store": resumed,
        "cells_executed": len(cells) - resumed,
        "cells_failed": len(failed),
        "executor": stats.get("executor"),
        "digests": digests,
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"resumed {args.journal}: {resumed}/{len(cells)} cell(s) "
              f"replayed from {store_dir}, "
              f"{summary['cells_executed']} executed "
              f"({summary['cells_failed']} failed), "
              f"executor={summary['executor']}")
        print(f"resume journal written to {resume_journal}")
    for row in failed:
        error = row["error"]
        print(f"repro sweep: error: {row['benchmark']}/{row['variant']} "
              f"failed: {error['type']}: {error['message']}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_stats(args) -> int:
    result = _simulate_from_args(args)
    registry = result.build_registry()
    payload = registry.to_flat_dict() if args.flat else registry.to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args) -> int:
    if args.capacity < 1:
        print("repro trace: error: --capacity must be positive",
              file=sys.stderr)
        return 2
    tracer = Tracer(capacity=args.capacity)
    result = _simulate_from_args(args, tracer=tracer)
    try:
        tracer.write(args.out, fmt=args.format)
    except OSError as error:
        print(f"repro trace: error: cannot write {args.out}: {error}",
              file=sys.stderr)
        return 1
    dropped = f", {tracer.dropped} evicted" if tracer.dropped else ""
    print(f"{args.out}: {len(tracer)} events ({args.format}{dropped}) | "
          f"{result.summary()}")
    return 0


def _cmd_chains(args) -> int:
    from repro.core import config as br_config
    run_config = _resolve_from_args(args).config
    program = suite.load(args.benchmark)
    result = simulate(program, instructions=run_config.instructions,
                      warmup=run_config.warmup,
                      br_config=br_config.mini())
    chains = result.runahead.chain_cache.chains()
    if not chains:
        print("no chains were extracted (no hard branches detected)")
        return 1
    for chain in chains:
        print(f"\n{chain}  live-ins={chain.live_ins} "
              f"live-outs={chain.live_outs}")
        for op, timed in zip(chain.exec_uops, chain.timed_flags):
            marker = " " if timed else "x"
            print(f"  {marker} {op!r}")
    return 0


def _cmd_simpoints(args) -> int:
    program = suite.load(args.benchmark)
    simpoints = select_simpoints(program, total_instructions=args.total,
                                 interval_length=args.interval)
    print(f"{len(simpoints)} representative region(s):")
    for point in simpoints:
        print(f"  start={point.start_instruction:>8d}  "
              f"weight={point.weight:.3f}  cluster={point.cluster}")
    return 0


COMMANDS = {
    "list": _cmd_list,
    "config": _cmd_config,
    "run": _cmd_run,
    "compare": _cmd_compare,
    "bench": _cmd_bench,
    "baseline": _cmd_baseline,
    "trend": _cmd_trend,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "chains": _cmd_chains,
    "simpoints": _cmd_simpoints,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into e.g. `head`; not an error
        return 0


if __name__ == "__main__":
    sys.exit(main())
