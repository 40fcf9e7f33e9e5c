"""Repository benchmark: sweep throughput end to end, host time per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_matrix --seed 1 \\
        --seconds 25 --trace 0

Workloads (see :mod:`perfbench.workloads`): ``paper_matrix`` (the Fig. 10
matrix through ``Session.run_cells`` on two pool workers) and
``predictor_sweep`` (the Fig. 1/11 predictor study, MPKI only) are the
gated ones in ``BENCHMARK.json``; ``long_region`` (ten-times-default
regions through ``Session.simulate``) runs the same way but is not gated:
host calibration cannot sample inside its three-second cells, and on a
shared 2-vCPU host its run-to-run spread stayed near 20%.

``--trace 0`` times whole passes of the workload, each on a cold
session, until ``--seconds`` have been measured, and reports the
end-to-end metrics: ``uops_per_ref_s`` (warmup + measured uops of every
cell or predictor lane over the timed wall seconds, in reference-host
seconds), ``setup_s`` (median of several cold set-ups, each in a fresh
process, in reference-host seconds: import the simulator, build every
program the workload loads, construct the ``Session``, warm the numpy
batch backend; see :mod:`perfbench.cold_setup`) and ``peak_rss_mb`` (the
larger peak RSS of this process and its pool workers, read before the
set-up processes run).  Reference-host
seconds are host seconds divided by how much slower than the reference
a fixed calibration kernel ran at the same moment (:mod:`perfbench.calib`);
the raw host figures are printed beside them.

``--trace 1`` runs one untraced pass and then one traced pass of the same
cells in-process (inline executor), wrapping each layer's public methods
from outside (:mod:`perfbench.spans`), and reports per-layer host self
seconds, exact call and work counts, simulated useful-work ratios and the
trace's own health (``trace.overhead_frac``, ``unattributed_frac``).
Spans go to ``.perfbench/spans-<workload>-seed<n>.json``.

``--workload all`` runs every workload, untraced and then traced, each in
its own process, and exits 1 if any of them failed.

Outputs are checked outside the timed section (see
:func:`perfbench.workloads.check_rows`); every pass must reproduce the
same model digest, and the traced digest must equal the untraced one.
The last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
CALIBRATION_REPEATS = 5
#: Calibration samples taken right before and right after each pass.
BRACKET_SAMPLES = 5
#: Stop starting new passes after this much measuring, whatever
#: ``--seconds`` says, so a run always ends well inside its time limit.
MAX_MEASURE_SECONDS = 90.0

#: Per-layer metrics of the traced run: name -> (unit, better, what it
#: should move).  A layer metric moves the named end-to-end metric on the
#: named workloads, and should stay unchanged on the others.
LAYER_METRICS = {
    "host.calib_s": ("s", "lower", "none: fixed pure-Python kernel, "
                     "compares hosts"),
    "workloads.build_s": ("s", "lower", "setup_s on all"),
    "emulator.stream_s": ("s", "lower", "uops_per_ref_s on all"),
    "emulator.uops": ("count", "lower", "uops_per_ref_s on all"),
    "emulator.shadow_s": ("s", "lower",
                          "uops_per_ref_s on paper_matrix, long_region"),
    "emulator.shadow_calls": ("count", "lower",
                              "uops_per_ref_s on paper_matrix, long_region"),
    "emulator.shadow_uops": ("count", "lower",
                             "uops_per_ref_s on paper_matrix, long_region"),
    "trace_cache.replay_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                             "long_region"),
    "trace_cache.record_s": ("s", "lower", "uops_per_ref_s on all"),
    "trace_cache.columns_s": ("s", "lower",
                              "uops_per_ref_s on predictor_sweep"),
    "trace_cache.hit_frac": ("ratio", "higher", "uops_per_ref_s on "
                             "paper_matrix; peak_rss_mb on long_region"),
    "replay.s": ("s", "lower", "uops_per_ref_s on predictor_sweep"),
    "replay.calls": ("count", "lower", "uops_per_ref_s on predictor_sweep"),
    "replay.lanes": ("count", "lower", "uops_per_ref_s on predictor_sweep"),
    "predictors.predict_s": ("s", "lower", "uops_per_ref_s on "
                             "predictor_sweep, paper_matrix"),
    "predictors.predict_calls": ("count", "lower", "uops_per_ref_s on "
                                 "predictor_sweep, paper_matrix"),
    "predictors.update_s": ("s", "lower", "uops_per_ref_s on "
                            "predictor_sweep, paper_matrix"),
    "predictors.update_calls": ("count", "lower", "uops_per_ref_s on "
                                "predictor_sweep, paper_matrix"),
    "predictors.observe_s": ("s", "lower", "uops_per_ref_s on "
                             "predictor_sweep, paper_matrix"),
    "predictors.observe_calls": ("count", "lower", "uops_per_ref_s on "
                                 "predictor_sweep, paper_matrix"),
    "predictors.batch_s": ("s", "lower", "uops_per_ref_s on predictor_sweep"),
    "predictors.batch_calls": ("count", "lower",
                               "uops_per_ref_s on predictor_sweep"),
    "sim.self_s": ("s", "lower", "uops_per_ref_s on all"),
    "uarch.run_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                    "long_region; none on predictor_sweep"),
    "uarch.self_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                     "long_region; none on predictor_sweep"),
    "uarch.uops": ("count", "lower", "uops_per_ref_s on paper_matrix, "
                   "long_region"),
    "memsys.access_data_s": ("s", "lower", "uops_per_ref_s on long_region, "
                             "paper_matrix"),
    "memsys.access_data_calls": ("count", "lower", "uops_per_ref_s on "
                                 "long_region, paper_matrix"),
    "memsys.access_insn_s": ("s", "lower", "uops_per_ref_s on long_region, "
                             "paper_matrix"),
    "memsys.access_insn_calls": ("count", "lower", "uops_per_ref_s on "
                                 "long_region, paper_matrix"),
    "memsys.l1d_miss_frac": ("ratio", "lower", "simulated; uops_per_ref_s "
                             "on long_region"),
    "memsys.l2_miss_frac": ("ratio", "lower", "simulated; uops_per_ref_s "
                            "on long_region"),
    "br.on_retire_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                       "long_region; none on predictor_sweep"),
    "br.on_retire_calls": ("count", "lower", "uops_per_ref_s on paper_matrix, "
                           "long_region"),
    "br.fetch_prediction_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                              "long_region"),
    "br.fetch_prediction_calls": ("count", "lower", "uops_per_ref_s on "
                                  "paper_matrix, long_region"),
    "br.on_branch_resolved_s": ("s", "lower", "uops_per_ref_s on "
                                "paper_matrix, long_region"),
    "br.on_branch_resolved_calls": ("count", "lower", "uops_per_ref_s on "
                                    "paper_matrix, long_region"),
    "br.hbt_s": ("s", "lower", "uops_per_ref_s on paper_matrix, long_region"),
    "br.ceb_s": ("s", "lower", "uops_per_ref_s on paper_matrix, long_region"),
    "br.extract_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                     "long_region"),
    "br.extract_calls": ("count", "lower", "uops_per_ref_s on paper_matrix, "
                         "long_region"),
    "br.merge_point_s": ("s", "lower", "uops_per_ref_s on paper_matrix, "
                         "long_region"),
    "br.dce_s": ("s", "lower", "uops_per_ref_s on paper_matrix, long_region"),
    "br.dce_calls": ("count", "lower", "uops_per_ref_s on paper_matrix, "
                     "long_region"),
    "br.cost_ratio": ("ratio", "lower", "uops_per_ref_s on long_region, "
                      "paper_matrix"),
    "br.pred_correct_frac": ("ratio", "higher", "simulated useful work"),
    "br.pred_late_frac": ("ratio", "lower", "simulated wasted work"),
    "dce.useful_uop_frac": ("ratio", "higher", "simulated useful work"),
    "harness.self_s": ("s", "lower", "uops_per_ref_s on paper_matrix only"),
    "sched.units": ("count", "lower", "uops_per_ref_s on paper_matrix only"),
    "store.put_s": ("s", "lower", "uops_per_ref_s on paper_matrix only"),
    "store.put_calls": ("count", "lower", "uops_per_ref_s on paper_matrix "
                        "only"),
    "journal.write_s": ("s", "lower", "uops_per_ref_s on paper_matrix only"),
    "trace.overhead_frac": ("ratio", "lower", "none: trace health"),
    "unattributed_frac": ("ratio", "lower", "none: trace health"),
}

END_TO_END_UNITS = {"uops_per_ref_s": "uops/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _import_program():
    """Import the simulator from this checkout's ``src``, or exit 2."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {src}",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import repro
    if not Path(repro.__file__).resolve().is_relative_to(src):
        print(f"perfbench: imported repro from {repro.__file__}, not "
              f"{src}", file=sys.stderr)
        sys.exit(2)


def prepare(workload) -> None:
    """Build the workload's programs and warm the batch backend, untimed."""
    from repro.predictors.batched import warm_backend
    from repro.workloads import registry
    for name in workload.benchmarks():
        registry.load(name)
    warm_backend()


def measure_setup(workload) -> Dict[str, float]:
    """Median of cold set-ups, each in a fresh process.

    ``setup_s`` is the median of each set-up divided by the host factor
    its own process measured right after it (see :mod:`perfbench.calib`);
    ``setup_host_s`` is the raw median.  The set-up processes raise this
    process's peak RSS of children, so measure that first.
    """
    from perfbench.calib import REFERENCE_KERNEL_S
    probes = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "cold_setup.py"),
             workload.name, str(workload.seed)],
            capture_output=True, text=True, check=True, timeout=60)
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return {"setup_s": median(probe["setup_s"] * REFERENCE_KERNEL_S
                              / probe["kernel_s"] for probe in probes),
            "setup_host_s": median(probe["setup_s"] for probe in probes),
            "build_s": median(probe["build_s"] for probe in probes)}


def host_calibration() -> float:
    """Median seconds of the calibration kernel, timed in this process."""
    from perfbench.calib import kernel
    return median(kernel() for _ in range(CALIBRATION_REPEATS))


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def timed_pass(workload, inline: bool, run_pass=None,
               per_cell: bool = True):
    """One pass on a cold session: (rows, wall s, host factor, session).

    The host factor is the host's slowness relative to the reference
    host while the pass ran (:mod:`perfbench.calib`), from kernel samples
    taken just before and just after the pass and, if ``per_cell``,
    before each call of the workload's ``entry_point``; the wall excludes
    the samples taken during the pass, so ``wall / factor`` is the pass's
    wall time in reference-host seconds.  ``run_pass`` replaces
    ``workload.run_pass`` (the traced run passes it wrapped in a span).
    """
    from perfbench.calib import Calibrator, kernel
    run_pass = run_pass or workload.run_pass
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-",
                               dir=WORK_DIR / "tmp")
    try:
        session = workload.session(scratch)
        gc.collect()
        calibrator = Calibrator()
        calibrator.samples += [kernel() for _ in range(BRACKET_SAMPLES)]
        sampling = (calibrator.per_call(*workload.entry_point, scratch,
                                        1 if inline else workload.jobs)
                    if per_cell else nullcontext())
        with sampling:
            start = time.perf_counter()
            rows = run_pass(session, scratch, inline)
            wall = time.perf_counter() - start
        wall -= calibrator.seconds
        calibrator.samples += [kernel() for _ in range(BRACKET_SAMPLES)]
        return workload.finish(rows), wall, calibrator.factor(), session
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


class Outcome:
    """Cells attempted/failed and check failures across a run's passes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: List[str] = []

    def add(self, rows: List[dict], label: str) -> None:
        from perfbench.workloads import check_rows, model_digest
        self.attempted += len(rows)
        self.failed += sum(not row["ok"] for row in rows)
        self.failures += [f"{label}: {message}"
                          for message in check_rows(rows)]
        digest = model_digest(rows)
        if self.digests and digest != self.digests[0]:
            self.failures.append(f"{label}: model digest {digest} differs "
                                 f"from the first pass ({self.digests[0]})")
        self.digests.append(digest)

    def add_pass_error(self, label: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{label}: pass raised "
                             f"{type(exc).__name__}: {exc}")

    @property
    def correct(self) -> bool:
        return not self.failures and self.failed == 0


def run_untraced(workload, seconds: float, outcome: Outcome):
    """Timed passes until ``seconds`` are measured.

    Returns the first pass's rows, every pass's wall seconds and host
    factor, and the peak RSS after the first pass: memory freed by one
    pass is not all returned to the system, so later passes would
    inflate the peak.
    """
    walls: List[float] = []
    factors: List[float] = []
    first_rows: List[dict] = []
    rss = 0.0
    while not walls or sum(walls) < min(seconds, MAX_MEASURE_SECONDS):
        label = f"pass {len(walls) + 1}"
        try:
            rows, wall, factor, _ = timed_pass(workload, inline=False)
        except Exception as exc:
            outcome.add_pass_error(label, exc)
            break
        walls.append(wall)
        factors.append(factor)
        outcome.add(rows, label)
        if not first_rows:
            first_rows = rows
            rss = peak_rss_mb()
    return first_rows, walls, factors, rss


def _sum_stats(rows: List[dict], path: str) -> float:
    total = 0.0
    for row in rows:
        node = (row["payload"] or {}).get("stats", {}) if row["ok"] else {}
        for part in path.split("."):
            node = node.get(part, {}) if isinstance(node, dict) else {}
        if isinstance(node, (int, float)):
            total += node
    return total


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer, rows, untraced_rows, session, traced_wall,
                  overhead, setup, calibration) -> Dict[str, float]:
    """Per-layer numbers of the traced pass.

    Host seconds are self times from ``tracer``; simulated ratios come
    from the cells' payloads; ``br.cost_ratio`` uses the untraced pass's
    cell walls, since tracing slows BR cells more than baseline cells.
    """
    from perfbench.workloads import cost_ratio
    spans = tracer.by_name()
    counts = tracer.counts

    def self_s(*names):
        return sum(spans.get(name, (0, 0.0, 0.0))[2] for name in names)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    pred_total = sum(_sum_stats(rows, f"runahead.pred.{kind}") for kind in
                     ("correct", "incorrect", "late", "inactive",
                      "throttled"))
    dce_executed = _sum_stats(rows, "dce.uops_executed")
    l1d_misses = _sum_stats(rows, "memsys.l1d.misses")
    l2_misses = _sum_stats(rows, "memsys.l2.misses")
    hits = counts.get("trace_cache.hits", 0)
    probes = hits + counts.get("trace_cache.misses", 0)
    attributed = sum(values[2] for name, values in spans.items()
                     if name != "bench.pass")
    metrics = {
        "host.calib_s": calibration,
        "workloads.build_s": setup["build_s"],
        "emulator.stream_s": self_s("emulator.stream"),
        "emulator.uops": counts.get("emulator.uops", 0),
        "emulator.shadow_s": self_s("emulator.shadow"),
        "emulator.shadow_calls": calls("emulator.shadow"),
        "emulator.shadow_uops": counts.get("emulator.shadow_uops", 0),
        "trace_cache.replay_s": self_s("trace_cache.replay",
                                       "trace_cache.stream"),
        "trace_cache.record_s": self_s("trace_cache.record"),
        "trace_cache.columns_s": self_s("trace_cache.columns"),
        "trace_cache.hit_frac": _ratio(hits, probes),
        "replay.s": self_s("sim.replay"),
        "replay.calls": calls("sim.replay"),
        "replay.lanes": counts.get("replay.lanes", 0),
        "sim.self_s": self_s("sim.cell", "sim.simulate"),
        "uarch.run_s": spans.get("uarch.run", (0, 0.0, 0.0))[1],
        "uarch.self_s": self_s("uarch.run"),
        "uarch.uops": counts.get("uarch.uops", 0),
        "memsys.l1d_miss_frac": _ratio(
            l1d_misses, l1d_misses + _sum_stats(rows, "memsys.l1d.hits")),
        "memsys.l2_miss_frac": _ratio(
            l2_misses, l2_misses + _sum_stats(rows, "memsys.l2.hits")),
        "br.cost_ratio": cost_ratio(untraced_rows),
        "br.pred_correct_frac": _ratio(
            _sum_stats(rows, "runahead.pred.correct"), pred_total),
        "br.pred_late_frac": _ratio(
            _sum_stats(rows, "runahead.pred.late"), pred_total),
        "dce.useful_uop_frac": _ratio(
            dce_executed - _sum_stats(rows, "dce.flushed_uops"),
            dce_executed),
        "harness.self_s": self_s("harness.sweep", "harness.store_put",
                                 "harness.journal"),
        "sched.units": (session.last_sweep or {}).get("units", 0),
        "store.put_s": self_s("harness.store_put"),
        "store.put_calls": calls("harness.store_put"),
        "journal.write_s": self_s("harness.journal"),
        "trace.overhead_frac": overhead,
        "unattributed_frac": _ratio(traced_wall - attributed, traced_wall),
    }
    for name in ("predictors.predict", "predictors.update",
                 "predictors.observe", "predictors.batch",
                 "memsys.access_data", "memsys.access_insn",
                 "br.on_retire", "br.fetch_prediction",
                 "br.on_branch_resolved", "br.extract", "br.dce"):
        metrics[f"{name}_s"] = self_s(name)
        metrics[f"{name}_calls"] = calls(name)
    for name in ("br.hbt", "br.ceb", "br.merge_point"):
        metrics[f"{name}_s"] = self_s(name)
    return {name: metrics[name] for name in LAYER_METRICS}


def fast_forward_line(tracer) -> str:
    """Region fast-forward seconds: only ``long_region`` starts past 0."""
    seconds = tracer.by_name().get("emulator.fast_forward", (0, 0.0, 0.0))[2]
    return (f"emulator.fast_forward_s {seconds:.6g} s  [not gated: moves "
            f"uops_per_ref_s on long_region only]")


def layer_lines(tracer, traced_wall: float) -> List[str]:
    """Self seconds per layer; they sum to the traced wall."""
    from perfbench.spans import layer_of
    layers: Dict[str, float] = {}
    for name, values in tracer.by_name().items():
        layer = layer_of(name)
        layers[layer] = layers.get(layer, 0.0) + values[2]
    lines = [f"layer self seconds (traced wall {traced_wall:.3f} s):"]
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<13} {seconds:9.3f} s "
                     f"{_ratio(seconds, traced_wall):6.1%}")
    lines.append(f"  {'sum':<13} {sum(layers.values()):9.3f} s")
    return lines


def run_traced(workload, outcome: Outcome, calibration):
    """One untraced and one traced inline pass, then the set-up probes.

    The bracketing samples alone calibrate both passes: a per-cell
    sample would land in some span's self time, and in the cell walls
    ``br.cost_ratio`` is taken from.
    """
    from perfbench.spans import TARGETS, SpanTracer
    untraced_rows, untraced_wall, untraced_factor, _ = timed_pass(
        workload, inline=True, per_cell=False)
    outcome.add(untraced_rows, "untraced pass")
    tracer = SpanTracer()
    traced_pass = tracer.wrap(workload.run_pass, "bench.pass", record=True)
    tracer.install(TARGETS)
    try:
        rows, traced_wall, traced_factor, session = timed_pass(
            workload, inline=True, run_pass=traced_pass, per_cell=False)
    finally:
        tracer.uninstall()
    # a traced digest that differs from the untraced one is a failure:
    # the wrappers must not perturb the model
    outcome.add(rows, "traced pass")
    overhead = (traced_wall / traced_factor) / (
        untraced_wall / untraced_factor) - 1.0
    metrics = layer_metrics(tracer, rows, untraced_rows, session,
                            traced_wall, overhead, measure_setup(workload),
                            calibration)
    path = WORK_DIR / f"spans-{workload.name}-seed{workload.seed}.json"
    tracer.write(str(path), {"workload": workload.name,
                             "seed": workload.seed,
                             "traced_wall_s": traced_wall,
                             "untraced_wall_s": untraced_wall})
    return rows, metrics, layer_lines(tracer, traced_wall) + [
        fast_forward_line(tracer),
        f"spans written to {path.relative_to(ROOT)}"]


def run_all(workloads, args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    status = 0
    for name in workloads:
        for trace in (0, 1):
            print(f"== {name} --trace {trace}", flush=True)
            status |= subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace)]).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The simulator does no BLAS work, but numpy's import starts one
    # OpenBLAS thread per core, and on a two-vCPU host their start-up
    # spin made cold set-up times vary by a third from one minute to the
    # next.  Set before numpy is imported; set-up processes inherit it.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    _import_program()
    from perfbench.workloads import WORKLOADS, summary_lines
    if args.workload == "all":
        return run_all(WORKLOADS, args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(WORK_DIR / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir

    workload = WORKLOADS[args.workload](args.seed)
    outcome = Outcome()
    prepare(workload)
    calibration = host_calibration()
    lines = [f"workload {workload.name} seed {workload.seed}"]
    if args.trace:
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        try:
            rows, metrics, extra = run_traced(workload, outcome,
                                              calibration)
        except Exception as exc:
            outcome.add_pass_error("traced run", exc)
            rows, metrics, extra = [], {name: 0.0 for name in units}, []
    else:
        rows, walls, factors, rss = run_untraced(workload, args.seconds,
                                                 outcome)
        setup = measure_setup(workload)
        uops = workload.uops() * len(walls)
        reference_wall = sum(wall / factor
                             for wall, factor in zip(walls, factors))
        metrics = {
            "uops_per_ref_s": _ratio(uops, reference_wall),
            "setup_s": setup["setup_s"],
            "peak_rss_mb": rss,
        }
        units = END_TO_END_UNITS
        extra = [f"passes {len(walls)}: " + ", ".join(
                     f"{wall:.3f} s (host factor {factor:.3f})"
                     for wall, factor in zip(walls, factors)),
                 f"host uops_per_s {_ratio(uops, sum(walls)):.6g} uops/s, "
                 f"host setup {setup['setup_host_s']:.6g} s, "
                 f"host.calib_s {calibration:.6f} s (informational)"]
    if rows and outcome.correct:
        outcome.failures += workload.checks(rows)
    lines += extra
    if rows:
        lines += summary_lines(rows)
    digest = outcome.digests[0] if outcome.digests else "none"
    error_frac = _ratio(outcome.failed, outcome.attempted)
    lines.append(f"model digest {digest}")
    lines.append(f"cell_error_frac {error_frac:.4f} "
                 f"({outcome.failed}/{outcome.attempted} cells)")
    for name, value in metrics.items():
        moves = f"  [{LAYER_METRICS[name][2]}]" if args.trace else ""
        lines.append(f"{name} {value:.6g} {units[name]}{moves}")
    for failure in outcome.failures:
        lines.append(f"CHECK FAILED {failure}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
