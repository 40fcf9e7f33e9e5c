"""Perf-tracking bench harness (``repro bench``).

Times the experiment matrix over the same cells:

1. **baseline** — serial, every cache bypassed: each cell emulates its
   region from scratch, exactly what the harness cost before the fast-path
   work;
2. **optimized** — the production path: shared committed-trace cache plus
   the ``REPRO_JOBS`` parallel runner;
3. **mpki_replay** — the predictor-only subset of the matrix rerun through
   the MPKI-only replay path (``outputs="mpki"``), timed against the same
   cells' baseline wall time;
4. **batch_replay** — a fixed multi-predictor microbench: a 40-lane
   bimodal/gshare configuration sweep over one ``mcf_17`` region, timed
   lane-at-a-time through scalar :func:`~repro.sim.predictor_replay.
   replay_mpki` and then in one :func:`~repro.sim.predictor_replay.
   replay_mpki_batch` call.  Branch columns are prewarmed off-clock so
   both phases measure predictor work, not trace emulation, and every
   lane's payload digest must match its scalar twin;
5. **tage_batch** — the same scalar-vs-batched shape for the paper's own
   baseline family: a 24-lane TAGE-SC-L configuration sweep (one tage64
   index geometry, varied counter/useful/base/loop sizing) through the
   columnar TAGE kernel of :mod:`repro.predictors.tage_batch`, digest-
   gated lane for lane against scalar replay.

Because trace-cache replays are bit-identical to live emulation and the
parallel merge is deterministic, passes 1 and 2 must produce byte-equal
result payloads (host wall-clock timings excluded) — the harness hashes
every cell and **fails on drift**, making it a correctness gate as well as
a perf report.  The replay pass reports no cycles by construction, so its
gate is exact MPKI equality against the baseline documents.  The report is
written as ``BENCH_run.json`` (schema ``repro-bench-v5``, stamped with a
:mod:`repro.observe.manifest` run manifest) so CI can archive a history of
simulator throughput; :func:`compare_to_baseline` diffs a fresh report
against a committed one (``BENCH_seed.json``) — warn-only by default,
promoted to a hard failure by ``repro bench --strict`` — and ``repro
trend`` renders the whole ``BENCH_*.json`` trajectory.

Numbers reported per pass: end-to-end wall seconds, committed uops/sec
(region length x cells / wall), aggregated per-phase host seconds from the
simulator's own timers, and trace-cache hit counts.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from typing import Dict, Iterable, List, Optional, Tuple

from repro import config as repro_config
from repro.observe.manifest import run_manifest
from repro.predictors.batched import warm_backend
from repro.predictors.bimodal import BimodalPredictor
from repro.predictors.gshare import GSharePredictor
from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.tage import TageConfig
from repro.predictors.tage_scl import TageSCL
from repro.session import Session
from repro.sim import experiments
from repro.sim.predictor_replay import (
    load_branch_columns,
    replay_mpki,
    replay_mpki_batch,
)
from repro.sim.simulator import simulate
from repro.workloads import suite

SCHEMA = "repro-bench-v5"

#: ``compare_to_baseline``: relative uops/sec regression that triggers a
#: warning.  Warn-only — shared CI runners are too noisy for a hard gate.
BASELINE_WARN_FRACTION = 0.25

#: Default matrices.  ``quick`` is sized for a CI smoke run.
DEFAULT_VARIANTS = ["tage64", "mtage", "core_only", "mini", "big"]
QUICK_VARIANTS = ["tage64", "mini", "big"]
QUICK_BENCHMARKS = ["sjeng_06", "mcf_17"]
QUICK_INSTRUCTIONS = 3_000
QUICK_WARMUP = 1_500

#: Batch-replay microbench (pass 4).  A fixed region and lane set —
#: independent of ``--quick`` — so the recorded speedup is comparable
#: across reports.  The region is long enough (~24K measured branches on
#: ``mcf_17``) that per-lane kernel work, not per-call overhead,
#: dominates both phases.
BATCH_REPLAY_BENCHMARK = "mcf_17"
BATCH_REPLAY_INSTRUCTIONS = 300_000
BATCH_REPLAY_WARMUP = 20_000
BATCH_REPLAY_BIMODAL_SIZES = (10, 12, 14, 16)
BATCH_REPLAY_GSHARE_SIZES = (10, 12, 13, 14, 15, 16)
BATCH_REPLAY_GSHARE_HISTORIES = (4, 6, 8, 10, 12, 16)


#: TAGE-batch microbench (pass 5).  One tage64-sized index geometry —
#: the lanes land in a single kernel group — with counter width, useful
#: width, base table size, and loop table size swept across 24 distinct
#: configurations (the off-by-``i`` reset periods keep every lane's
#: dedupe key unique, so all 24 replay for real).
TAGE_BATCH_BENCHMARK = "mcf_17"
TAGE_BATCH_INSTRUCTIONS = 300_000
TAGE_BATCH_WARMUP = 20_000
TAGE_BATCH_LANES = 24


def batch_replay_predictors() -> list:
    """Fresh instances of the 40-lane batch-replay microbench sweep."""
    lanes = [BimodalPredictor(size_log2=size)
             for size in BATCH_REPLAY_BIMODAL_SIZES]
    lanes.extend(GSharePredictor(size_log2=size, history_bits=history)
                 for size in BATCH_REPLAY_GSHARE_SIZES
                 for history in BATCH_REPLAY_GSHARE_HISTORIES)
    return lanes


def tage_batch_predictors() -> list:
    """Fresh instances of the 24-lane TAGE-SC-L microbench sweep."""
    lanes = []
    for index in range(TAGE_BATCH_LANES):
        config = TageConfig(
            num_tables=12, table_size_log2=11, tag_bits=11,
            counter_bits=(2, 3)[index % 2],
            useful_bits=(1, 2)[(index // 2) % 2],
            min_history=4, max_history=640,
            base_size_log2=12 + (index // 4) % 3,
            useful_reset_period=(1 << 16) + index)
        lanes.append(TageSCL(
            config,
            loop=LoopPredictor(size_log2=5 + index // 12),
            corrector=StatisticalCorrector((3, 5, 10, 21, 42), 10),
            name=f"scl-sweep{index}"))
    return lanes


def strip_host(payload: dict) -> dict:
    """Drop wall-clock-dependent fields; everything left is deterministic."""
    clean = json.loads(json.dumps(payload))
    stats = clean.get("stats")
    if isinstance(stats, dict):
        stats.pop("host", None)
    return clean


def payload_digest(payload: dict) -> str:
    """sha256 over the canonical JSON of the deterministic payload subset."""
    canonical = json.dumps(strip_host(payload), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _phase_seconds(payloads: Iterable[dict]) -> Dict[str, float]:
    """Aggregate ``stats.host.phase.*_seconds`` across cell payloads."""
    totals: Dict[str, float] = {}
    for payload in payloads:
        phases = payload.get("stats", {}).get("host", {}).get("phase", {})
        for name, seconds in phases.items():
            if name.endswith("_seconds"):
                key = name[:-len("_seconds")]
                totals[key] = totals.get(key, 0.0) + float(seconds)
    return {name: round(seconds, 6)
            for name, seconds in sorted(totals.items())}


def _pass_report(wall: float, payloads: List[dict], uops: int) -> dict:
    return {
        "wall_seconds": round(wall, 6),
        "uops_per_second": round(uops / wall) if wall > 0 else None,
        "host_phase_seconds": _phase_seconds(payloads),
    }


def _scalar_vs_batch_pass(run_config, benchmark, instructions, warmup,
                          make_lanes, tag) -> Tuple[dict, List[str]]:
    """Shared body of the scalar-vs-batched microbench passes (4 and 5).

    Returns the pass report and the mismatched-lane list for the drift
    gate.  Both phases replay the *same* prewarmed branch columns, so the
    measured ratio is pure predictor-kernel speedup.
    """
    program = suite.load(benchmark)
    session = Session(run_config.replace(
        instructions=instructions, warmup=warmup))
    trace_cache = session.trace_cache
    # prewarm off-clock: the one functional emulation of the region and
    # the batch backend's one-time costs (numpy import, scan LUT, TAGE
    # cutover calibration) must not be billed to either phase
    load_branch_columns(program, 0, instructions + warmup,
                        trace_cache=trace_cache)
    warm_backend()

    # neither phase should be billed GC passes over *other* work's live
    # heap (the earlier bench passes' payloads, then the scalar phase's
    # result objects): collect and freeze the survivors each time
    gc.collect()
    gc.freeze()
    try:
        start = time.perf_counter()
        scalar_results = [
            replay_mpki(program, predictor, instructions=instructions,
                        warmup=warmup, trace_cache=trace_cache)
            for predictor in make_lanes()]
        scalar_wall = time.perf_counter() - start

        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        batch_results = replay_mpki_batch(
            program, make_lanes(), instructions=instructions,
            warmup=warmup, trace_cache=trace_cache)
        batch_wall = time.perf_counter() - start
    finally:
        gc.unfreeze()

    mismatched = []
    for lane, (scalar, batch) in enumerate(zip(scalar_results,
                                               batch_results)):
        if payload_digest(batch.to_dict()) != payload_digest(
                scalar.to_dict()):
            mismatched.append(f"{benchmark}/lane{lane} ({tag})")
    speedup = scalar_wall / batch_wall if batch_wall > 0 else None
    return {
        "benchmark": benchmark,
        "lanes": len(scalar_results),
        "instructions": instructions,
        "warmup": warmup,
        "wall_seconds": round(batch_wall, 6),
        "scalar_wall_seconds": round(scalar_wall, 6),
        "speedup": round(speedup, 3) if speedup else None,
    }, mismatched


def _run_batch_replay_pass(run_config) -> Tuple[dict, List[str]]:
    """Pass 4: the 40-lane bimodal/gshare scalar-vs-batched microbench."""
    return _scalar_vs_batch_pass(
        run_config, BATCH_REPLAY_BENCHMARK, BATCH_REPLAY_INSTRUCTIONS,
        BATCH_REPLAY_WARMUP, batch_replay_predictors, "batch")


def _run_tage_batch_pass(run_config) -> Tuple[dict, List[str]]:
    """Pass 5: the 24-lane TAGE-SC-L scalar-vs-batched microbench."""
    return _scalar_vs_batch_pass(
        run_config, TAGE_BATCH_BENCHMARK, TAGE_BATCH_INSTRUCTIONS,
        TAGE_BATCH_WARMUP, tage_batch_predictors, "tage_batch")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker-count precedence: explicit argument > config layers > 1.

    Delegates to :func:`repro.config.resolve_jobs`, the single
    jobs-precedence resolver (flag > env ``REPRO_JOBS`` > config file >
    serial) — the experiment runner resolves through the same function,
    so the rule cannot drift between the two call sites.  ``--quick``
    runs go through exactly the same resolution — an explicit
    ``--jobs``/``REPRO_JOBS=1`` always forces serial, never silently
    widened by the smoke matrix.
    """
    return repro_config.resolve_jobs(jobs)


def run_bench(benchmarks: Optional[List[str]] = None,
              variants: Optional[List[str]] = None,
              instructions: Optional[int] = None,
              warmup: Optional[int] = None,
              jobs: Optional[int] = None,
              quick: bool = False,
              journal: Optional[str] = None,
              progress=None,
              executor: Optional[str] = None) -> dict:
    """Run the five-pass bench and return the ``repro-bench-v5`` report.

    ``quick`` selects the CI smoke matrix; explicit arguments override it.
    The returned report's ``drift.ok`` is the pass/fail bit.  ``journal``
    flight-records the *optimized* pass (the production parallel sweep)
    as a ``repro-journal-v1`` file for ``repro sweep report``;
    ``progress`` receives live snapshots from the same pass.
    """
    if quick:
        benchmarks = benchmarks or QUICK_BENCHMARKS
        variants = variants or QUICK_VARIANTS
        instructions = instructions or QUICK_INSTRUCTIONS
        warmup = warmup if warmup is not None else QUICK_WARMUP
    run_config = repro_config.current_config()
    benchmarks = list(benchmarks or suite.BENCHMARK_NAMES)
    variants = list(variants or DEFAULT_VARIANTS)
    instructions = instructions or run_config.instructions
    warmup = warmup if warmup is not None else run_config.warmup
    jobs = resolve_jobs(jobs)
    run_config = run_config.replace(instructions=instructions,
                                    warmup=warmup, jobs=jobs)

    cells: List[Tuple[str, str]] = [(benchmark, variant)
                                    for benchmark in benchmarks
                                    for variant in variants]
    region = instructions + warmup
    total_uops = region * len(cells)

    # -- pass 1: baseline (serial, no caches) ------------------------------
    # simulate() is called directly so neither the result cache nor the
    # trace cache can shave work off the measurement.  Per-cell walls are
    # kept so the MPKI-replay pass can price its subset of the matrix.
    baseline_payloads: List[dict] = []
    cell_walls: List[float] = []
    start = time.perf_counter()
    for benchmark, variant in cells:
        cell_start = time.perf_counter()
        program = suite.load(benchmark)
        result = simulate(program, instructions=instructions, warmup=warmup,
                          **experiments.variant_kwargs(variant))
        baseline_payloads.append(result.to_dict())
        cell_walls.append(time.perf_counter() - cell_start)
    baseline_wall = time.perf_counter() - start

    # -- pass 2: optimized (trace cache + parallel runner) -----------------
    # a fresh Session per pass is the isolation `clear_caches()` used to
    # provide, with no global state touched at all
    optimized_session = Session(run_config)
    start = time.perf_counter()
    rows = optimized_session.run_cells(cells, instructions=instructions,
                                       warmup=warmup, jobs=jobs,
                                       cache=False,
                                       journal=journal,
                                       progress=progress,
                                       executor=executor)
    optimized_wall = time.perf_counter() - start
    optimized_payloads = [row["payload"] for row in rows]
    trace_hits = sum(1 for row in rows if row["trace_cache_hit"])

    # -- pass 3: MPKI-only replay over the predictor-only subset -----------
    mpki_indexes = [index for index, (_, variant) in enumerate(cells)
                    if experiments.is_predictor_only(variant)]
    mpki_report = None
    mpki_mismatched: List[str] = []
    if mpki_indexes:
        mpki_cells = [cells[index] for index in mpki_indexes]
        mpki_session = Session(run_config)
        start = time.perf_counter()
        mpki_rows = mpki_session.run_cells(mpki_cells,
                                           instructions=instructions,
                                           warmup=warmup, jobs=jobs,
                                           cache=False, outputs="mpki")
        mpki_wall = time.perf_counter() - start
        # the replay payload carries no timing fields, so the drift gate
        # is exact MPKI equality against the full-timing baseline document
        for index, row in zip(mpki_indexes, mpki_rows):
            if row["payload"]["mpki"] != baseline_payloads[index]["mpki"]:
                benchmark, variant = cells[index]
                mpki_mismatched.append(f"{benchmark}/{variant}")
        mpki_baseline_wall = sum(cell_walls[index]
                                 for index in mpki_indexes)
        mpki_speedup = (mpki_baseline_wall / mpki_wall
                        if mpki_wall > 0 else None)
        mpki_report = {
            "cells": len(mpki_cells),
            "wall_seconds": round(mpki_wall, 6),
            "baseline_wall_seconds": round(mpki_baseline_wall, 6),
            "speedup": round(mpki_speedup, 3) if mpki_speedup else None,
        }

    # -- pass 4: batched multi-predictor replay microbench ------------------
    batch_report, batch_mismatched = _run_batch_replay_pass(run_config)

    # -- pass 5: columnar TAGE-SC-L sweep microbench ------------------------
    tage_report, tage_mismatched = _run_tage_batch_pass(run_config)

    # -- drift gate --------------------------------------------------------
    digests: Dict[str, str] = {}
    mismatched: List[str] = []
    for (benchmark, variant), base, opt in zip(cells, baseline_payloads,
                                               optimized_payloads):
        name = f"{benchmark}/{variant}"
        base_digest = payload_digest(base)
        digests[name] = base_digest
        if payload_digest(opt) != base_digest:
            mismatched.append(name)
    mismatched.extend(f"{name} (mpki)" for name in mpki_mismatched)
    mismatched.extend(batch_mismatched)
    mismatched.extend(tage_mismatched)

    speedup = baseline_wall / optimized_wall if optimized_wall > 0 else None
    pass_walls = {"baseline": baseline_wall, "optimized": optimized_wall}
    if mpki_report:
        pass_walls["mpki_replay"] = mpki_report["wall_seconds"]
    pass_walls["batch_replay"] = batch_report["wall_seconds"]
    pass_walls["tage_batch"] = tage_report["wall_seconds"]
    return {
        "schema": SCHEMA,
        "manifest": run_manifest(run_config, phase_seconds=pass_walls),
        "quick": quick,
        "benchmarks": benchmarks,
        "variants": variants,
        "instructions": instructions,
        "warmup": warmup,
        "jobs": jobs,
        "cells": len(cells),
        "uops_per_cell": region,
        "journal": journal,
        "baseline": _pass_report(baseline_wall, baseline_payloads,
                                 total_uops),
        "optimized": {
            **_pass_report(optimized_wall, optimized_payloads, total_uops),
            "trace_cache_hits": trace_hits,
            "trace_cache_misses": len(cells) - trace_hits,
            "trace_cache_hit_rate": round(trace_hits / len(cells), 4)
            if cells else None,
            "scheduler": optimized_session.last_sweep,
        },
        "mpki_replay": mpki_report,
        "batch_replay": batch_report,
        "tage_batch": tage_report,
        "speedup": round(speedup, 3) if speedup else None,
        "drift": {"ok": not mismatched, "mismatched_cells": mismatched},
        "digests": digests,
    }


def format_report(report: dict) -> str:
    """Human-readable summary of a bench report."""
    baseline = report["baseline"]
    optimized = report["optimized"]
    hit_rate = optimized.get("trace_cache_hit_rate")
    hit_rate_text = f"{100 * hit_rate:.0f}%" if hit_rate is not None \
        else "n/a"
    lines = [
        f"bench: {report['cells']} cells "
        f"({len(report['benchmarks'])} benchmarks x "
        f"{len(report['variants'])} variants), "
        f"{report['uops_per_cell']} uops/cell, jobs={report['jobs']}, "
        f"trace-cache hit rate {hit_rate_text}",
        f"  baseline : {baseline['wall_seconds']:.3f}s "
        f"({baseline['uops_per_second']:,} uops/s)",
        f"  optimized: {optimized['wall_seconds']:.3f}s "
        f"({optimized['uops_per_second']:,} uops/s), "
        f"trace-cache hits {optimized['trace_cache_hits']}"
        f"/{report['cells']}",
        f"  speedup  : {report['speedup']:.2f}x",
    ]
    replay = report.get("mpki_replay")
    if replay:
        lines.append(
            f"  mpki-only: {replay['wall_seconds']:.3f}s for "
            f"{replay['cells']} predictor-only cell(s) "
            f"(vs {replay['baseline_wall_seconds']:.3f}s full-timing, "
            f"{replay['speedup']:.2f}x)")
    batch = report.get("batch_replay")
    if batch:
        lines.append(
            f"  batched  : {batch['wall_seconds']:.3f}s for "
            f"{batch['lanes']} lanes on {batch['benchmark']} "
            f"(vs {batch['scalar_wall_seconds']:.3f}s lane-at-a-time, "
            f"{batch['speedup']:.2f}x)")
    tage = report.get("tage_batch")
    if tage:
        lines.append(
            f"  tage     : {tage['wall_seconds']:.3f}s for "
            f"{tage['lanes']} TAGE-SC-L lanes on {tage['benchmark']} "
            f"(vs {tage['scalar_wall_seconds']:.3f}s lane-at-a-time, "
            f"{tage['speedup']:.2f}x)")
    drift = report["drift"]
    if drift["ok"]:
        lines.append("  drift    : none (all cell digests match)")
    else:
        lines.append(f"  drift    : MISMATCH in "
                     f"{len(drift['mismatched_cells'])} cell(s): "
                     + ", ".join(drift["mismatched_cells"]))
    return "\n".join(lines)


def compare_to_baseline(report: dict, baseline_report: dict,
                        fraction: Optional[float] = None) -> List[str]:
    """Throughput diff against a committed report.

    Returns human-readable warnings for every pass whose uops/sec fell
    more than ``fraction`` (default ``BASELINE_WARN_FRACTION``) below the
    committed report's number.  Warn-only at the call sites by default —
    shared runners are noisy — but ``repro bench --strict`` promotes the
    result to a hard failure, with ``--baseline-tolerance`` widening the
    band to what the runner fleet actually sustains.  Never raises on
    shape differences — a baseline from an older schema simply
    contributes no warnings for the missing passes.
    """
    if fraction is None:
        fraction = BASELINE_WARN_FRACTION
    warnings: List[str] = []
    for pass_name in ("baseline", "optimized"):
        current = report.get(pass_name, {}).get("uops_per_second")
        committed = baseline_report.get(pass_name, {}).get(
            "uops_per_second")
        if not current or not committed:
            continue
        ratio = current / committed
        if ratio < 1.0 - fraction:
            warnings.append(
                f"{pass_name} throughput {current:,} uops/s is "
                f"{100 * (1 - ratio):.0f}% below the committed baseline "
                f"{committed:,} uops/s")
    for pass_name in ("mpki_replay", "batch_replay", "tage_batch"):
        current_speedup = (report.get(pass_name) or {}).get("speedup")
        committed_speedup = (baseline_report.get(pass_name) or {}).get(
            "speedup")
        if not current_speedup or not committed_speedup:
            continue
        ratio = current_speedup / committed_speedup
        if ratio < 1.0 - fraction:
            warnings.append(
                f"{pass_name} speedup {current_speedup:.2f}x is "
                f"{100 * (1 - ratio):.0f}% below the committed baseline "
                f"{committed_speedup:.2f}x")
    return warnings
