"""The benchmark's workloads and the checks on their outputs.

Each workload drives the simulator only through its public entry points
(``Session.run_cells``, ``Session.simulate``, ``Session.run``).  The seed
chooses inputs only: the order in which benchmarks are submitted, the
region start of ``long_region``, and which benchmark ``predictor_sweep``
re-checks against scalar replay.  Every pass starts from a cold
``Session`` (empty trace and result caches), so passes measure the same
work.

A pass returns one row per cell: ``{"cell", "benchmark", "variant",
"region", "ok", "error", "payload", "wall_s"}``, with ``payload`` the
cell's ``to_dict()`` and ``wall_s`` the cell's own host seconds.  Rows
of one ``region`` (benchmark and region start) must commit the same
architectural stream whatever the variant.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from statistics import mean
from typing import Dict, List, Optional

import repro.session
from repro.config import RunConfig
from repro.session import Session
from repro.workloads import registry

BR_MATRIX = ("tage64", "core_only", "mini", "big")
PREDICTOR_STUDY = ("bimodal", "gshare", "perceptron", "tage64", "tage80",
                   "mtage")

#: Paper Fig. 10 headline for Big BR over a 64KB TAGE-SC-L baseline.
PAPER_BIG_MPKI_DELTA = -0.475
PAPER_BIG_IPC_DELTA = 0.169


def all_benchmarks() -> List[str]:
    return [benchmark.name for benchmark in registry.all_benchmarks()]


class Workload:
    """One set of inputs; subclasses define cells, passes and checks.

    Subclasses set ``order`` (the benchmarks loaded, in submission order)
    and ``cells`` (``(benchmark, variant)`` pairs, one per cell or
    predictor lane) from the seed, and name in ``entry_point`` the
    ``(owner, attribute)`` their sweep calls once per cell, before which
    host speed is sampled (:mod:`perfbench.calib`).
    """

    name = ""
    config = RunConfig()
    entry_point = (Session, "run")
    #: Processes that run cells side by side in an untraced pass.
    jobs = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.order: List[str] = []
        self.cells: List[tuple] = []

    def benchmarks(self) -> List[str]:
        return self.order

    def session(self, scratch: str) -> Session:
        """A cold session for one pass; ``scratch`` is the pass's own dir."""
        return Session(self.config)

    def run_pass(self, session: Session, scratch: str,
                 inline: bool) -> List[dict]:
        """Run every cell once; ``inline`` keeps all work in-process."""
        raise NotImplementedError

    def uops(self) -> int:
        """Warmup + measured uops simulated (or replayed) by one pass."""
        return len(self.cells) * (self.config.instructions
                                  + self.config.warmup)

    def checks(self, rows: List[dict]) -> List[str]:
        """Workload-specific output checks beyond :func:`check_rows`."""
        return []

    @staticmethod
    def finish(rows: List[dict]) -> List[dict]:
        """Turn results into payload dicts (outside the timed section)."""
        for row in rows:
            if row["payload"] is not None and \
                    not isinstance(row["payload"], dict):
                row["payload"] = row["payload"].to_dict()
        return rows


def sweep_rows(rows: List[dict]) -> List[dict]:
    """``run_cells`` rows in the benchmark's row shape."""
    return [{"cell": f"{row['benchmark']}/{row['variant']}",
             "benchmark": row["benchmark"], "variant": row["variant"],
             "region": row["benchmark"], "ok": bool(row.get("ok")),
             "error": (row.get("error") or {}).get("message"),
             "payload": row.get("payload"),
             "wall_s": (row.get("cell") or {}).get("wall_seconds", 0.0)}
            for row in rows]


class PaperMatrix(Workload):
    """The paper's Fig. 10 matrix, as users run it.

    Every registered benchmark x {tage64, core_only, mini, big} at the
    default 12k+6k region through one ``run_cells`` sweep on two pool
    workers, with a journal and a fresh result store.  Every layer works
    here, and the harness (scheduler, pool, store, journal) only here.
    The inputs are fixed; the seed changes nothing, so cells are always
    submitted in registry order and the pool's tail does not vary.
    """

    name = "paper_matrix"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = all_benchmarks()
        self.cells = [(benchmark, variant) for benchmark in self.order
                      for variant in BR_MATRIX]
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
        self.jobs = min(2, cpus)

    def session(self, scratch: str) -> Session:
        return Session(self.config.replace(
            result_store_dir=os.path.join(scratch, "store")))

    def run_pass(self, session, scratch, inline):
        return sweep_rows(session.run_cells(
            self.cells, jobs=1 if inline else self.jobs,
            executor="inline" if inline else None,
            journal=os.path.join(scratch, "journal.jsonl")))


class PredictorSweep(Workload):
    """The Fig. 1/11 predictor study: MPKI only, no timing model.

    Every registered benchmark x six baseline predictors with
    ``outputs="mpki"``, run serially, at 60k+10k so per-lane predictor
    work outweighs fixed costs.  Branch Runahead, the core and the memory
    system do no work here, so their optimisations must leave this
    workload unchanged.  The seed orders the benchmarks and picks the one
    whose batched lanes are re-checked against scalar replay.
    """

    name = "predictor_sweep"
    config = RunConfig(instructions=60_000, warmup=10_000)
    #: Each benchmark's six lanes replay together in one batched call.
    entry_point = (repro.session, "replay_mpki_batch")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = all_benchmarks()
        self.rng.shuffle(self.order)
        self.cells = [(benchmark, predictor) for benchmark in self.order
                      for predictor in PREDICTOR_STUDY]
        #: The benchmark whose batched lanes are re-run by scalar replay.
        self.checked = self.rng.choice(sorted(self.order))

    def run_pass(self, session, scratch, inline):
        return sweep_rows(session.run_cells(self.cells, jobs=1,
                                            outputs="mpki"))

    def checks(self, rows):
        """Batched lanes must equal scalar ``replay_mpki`` payloads."""
        scalar = Session(self.config)
        failures = []
        for row in rows:
            if row["benchmark"] != self.checked or not row["ok"]:
                continue
            expected = scalar.run(self.checked, row["variant"],
                                  outputs="mpki").to_dict()
            if payload_digest(expected) != payload_digest(row["payload"]):
                failures.append(f"{row['cell']}: batched payload differs "
                                f"from scalar replay_mpki")
        return failures


class LongRegion(Workload):
    """Regions over ten times the default, one ``Session.simulate`` at a time.

    mcf_17 and bfs (memory-bound chains) and sjeng_06 (ALU chains) x
    {tage64, big} at 200k+20k: per-uop costs swamp fixed costs, Branch
    Runahead runs in steady state (chain cache full, throttling live) and
    the trace cache holds large entries.  The seed picks each region's
    start (0 to 15k instructions in) and the benchmark order.
    """

    name = "long_region"
    config = RunConfig(instructions=200_000, warmup=20_000)
    entry_point = (Session, "simulate")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.order = ["mcf_17", "sjeng_06", "bfs"]
        self.rng.shuffle(self.order)
        self.starts = {benchmark: 1024 * self.rng.randrange(16)
                       for benchmark in self.order}
        self.cells = [(benchmark, variant) for benchmark in self.order
                      for variant in ("tage64", "big")]

    def run_pass(self, session, scratch, inline):
        rows = []
        for benchmark, variant in self.cells:
            start = self.starts[benchmark]
            kwargs = {"predictor": "tage64", "start_instruction": start}
            if variant != "tage64":
                kwargs["br_config"] = variant
            row = {"cell": f"{benchmark}/{variant}@{start}",
                   "benchmark": benchmark, "variant": variant,
                   "region": f"{benchmark}@{start}", "ok": True,
                   "error": None, "payload": None}
            tick = time.perf_counter()
            try:
                row["payload"] = session.simulate(benchmark, **kwargs)
            except Exception as exc:  # one bad cell must not end the run
                row.update(ok=False, error=f"{type(exc).__name__}: {exc}")
            row["wall_s"] = time.perf_counter() - tick
            rows.append(row)
        return rows


WORKLOADS = {workload.name: workload
             for workload in (PaperMatrix, PredictorSweep, LongRegion)}


# -- output checks -----------------------------------------------------------

def strip_host(payload: dict) -> dict:
    """The deterministic part of a payload: everything but host timings."""
    clean = json.loads(json.dumps(payload))
    stats = clean.get("stats")
    if isinstance(stats, dict):
        stats.pop("host", None)
    return clean


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(
        strip_host(payload), sort_keys=True,
        separators=(",", ":")).encode()).hexdigest()


def model_digest(rows: List[dict]) -> str:
    """sha256 over every cell's host-stripped payload, in cell order."""
    digest = hashlib.sha256()
    for row in sorted(rows, key=lambda row: row["cell"]):
        digest.update(row["cell"].encode())
        digest.update(payload_digest(row["payload"]).encode()
                      if row["ok"] else b"failed")
    return digest.hexdigest()


def _committed(payload: dict) -> tuple:
    core = payload["stats"]["core"]
    return (core["instructions"], core["fetch"]["cond_branches"],
            core["fetch"]["taken_branches"])


def check_rows(rows: List[dict]) -> List[str]:
    """Checks every workload shares; returns one message per failure.

    Every cell is ok and measured a full post-warmup region, and every
    variant of one region commits the same instruction, conditional-branch
    and taken-branch counts: Branch Runahead must never change the
    architectural stream.
    """
    failures = []
    committed: Dict[str, Dict[tuple, List[str]]] = {}
    for row in rows:
        if not row["ok"]:
            failures.append(f"{row['cell']}: failed: {row['error']}")
            continue
        core = row["payload"]["stats"]["core"]
        if core.get("warmup_truncated"):
            failures.append(f"{row['cell']}: warmup_truncated")
        committed.setdefault(row["region"], {}).setdefault(
            _committed(row["payload"]), []).append(row["variant"])
    for region, streams in committed.items():
        if len(streams) > 1:
            failures.append(
                f"{region}: variants commit different streams "
                f"(instructions, cond branches, taken): {streams}")
    return failures


# -- simulated summary -------------------------------------------------------

def _relative(new: float, base: float) -> Optional[float]:
    return (new - base) / base if base else None


def cost_ratio(rows: List[dict]) -> float:
    """Host seconds of ``big`` cells over ``tage64`` cells, same regions."""
    walls = {(row["region"], row["variant"]): row["wall_s"]
             for row in rows if row["ok"]}
    big = tage = 0.0
    for (region, variant), wall in walls.items():
        if variant == "big" and (region, "tage64") in walls:
            big += wall
            tage += walls[(region, "tage64")]
    return big / tage if tage else 0.0


def summary_lines(rows: List[dict]) -> List[str]:
    """MPKI/IPC per variant and the BR-vs-tage64 deltas (simulated time)."""
    by_variant: Dict[str, Dict[str, dict]] = {}
    for row in rows:
        if row["ok"]:
            by_variant.setdefault(row["variant"], {})[row["region"]] = \
                row["payload"]
    lines = ["simulated summary (model unvalidated against hardware; "
             "means over benchmarks):"]
    for variant, cells in by_variant.items():
        mpki = mean(payload["mpki"] for payload in cells.values())
        ipcs = [payload["ipc"] for payload in cells.values()
                if payload.get("ipc") is not None]
        ipc = f"{mean(ipcs):.3f}" if ipcs else "n/a"
        lines.append(f"  {variant:<11} MPKI {mpki:8.3f}  IPC {ipc}")
    base = by_variant.get("tage64", {})
    for variant in ("core_only", "mini", "big"):
        cells = by_variant.get(variant)
        if not cells or not base:
            continue
        regions = [region for region in cells if region in base]
        mpki = [_relative(cells[r]["mpki"], base[r]["mpki"])
                for r in regions]
        ipc = [_relative(cells[r]["ipc"], base[r]["ipc"]) for r in regions]
        mpki = [value for value in mpki if value is not None]
        ipc = [value for value in ipc if value is not None]
        line = (f"  {variant} vs tage64: MPKI {mean(mpki):+.1%}, "
                f"IPC {mean(ipc):+.1%}" if mpki and ipc else
                f"  {variant} vs tage64: n/a")
        if variant == "big":
            line += (f"  (paper Fig. 10: MPKI {PAPER_BIG_MPKI_DELTA:+.1%}, "
                     f"IPC {PAPER_BIG_IPC_DELTA:+.1%})")
        lines.append(line)
    return lines
