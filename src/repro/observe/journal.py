"""Sweep flight recorder: append-only JSONL journals (``repro-journal-v1``).

A *journal* is the black-box record of one ``run_cells`` sweep.  The
parent process is the single writer — every line is one JSON event,
written and flushed atomically as rows land from the ordered ``imap``
runner — but events preserve their origin as logical *streams*: the
``sweep`` stream carries the parent's lifecycle events and every worker
process owns a ``worker-<pid>`` stream whose events (timestamps, peak-RSS
deltas, manifests) were measured inside that worker and shipped back on
the result rows.  Because the runner yields rows in input order, the
merged journal is deterministic for any job count: the same sweep
produces the same event sequence (modulo timestamps and pids), and the
per-cell ``payload_sha256`` values must match the rows the caller got
back.

Event vocabulary::

    sweep_started    manifest + fingerprint + cell plan + jobs
    worker_started   one per worker process, with *its own* run manifest
    cell_started     index/benchmark/variant, worker wall-clock start
    cell_finished    wall seconds, peak-RSS delta, cache-hit flags,
                     payload sha256, MPKI/IPC extract
    cell_failed      exception class + message + traceback (sweep
                     continues; the row carries a structured error)
    worker_exited    per-worker cell/wall/cache-hit totals
    sweep_finished   done/failed counts, sweep wall seconds, ok flag

A journal whose process was killed mid-sweep simply stops early: the
reader tolerates a truncated final line and a missing ``sweep_finished``
and reports the sweep as *incomplete* rather than failing to parse —
this is what ``repro sweep resume`` keys on.

Setting ``REPRO_PROFILE=cprofile`` while journaling makes every worker
dump per-cell ``pstats`` files under ``<journal>.profile/``;
``repro sweep report`` surfaces the top cumulative frames.
"""

from __future__ import annotations

import json
import os
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.observe.manifest import manifest_fingerprint, run_manifest

JOURNAL_SCHEMA = "repro-journal-v1"

#: Environment knob: ``cprofile`` writes per-cell pstats next to the
#: journal (only consulted when a journal path is active).
PROFILE_ENV = "REPRO_PROFILE"


def _payload_digest(payload: dict) -> str:
    # lazy: repro.sim.bench imports repro.session at module level, which
    # must stay importable without this package being fully initialized
    from repro.sim.bench import payload_digest
    return payload_digest(payload)


def profile_dir_for(path: str) -> str:
    """Directory for per-cell pstats dumps belonging to ``path``."""
    return f"{os.fspath(path)}.profile"


class SweepRecorder:
    """Parent-side journal writer + live progress bookkeeping.

    Construct with ``path=None`` for a progress-only recorder (no file is
    written).  ``progress`` is invoked with a :meth:`snapshot` dict after
    every row.  The recorder never raises out of the run path for I/O
    reasons at event granularity — but an unwritable journal path fails
    fast at construction, before any simulation work is spent.
    """

    def __init__(self, path: Optional[str],
                 config=None,
                 cells: Sequence[Tuple[str, str]] = (),
                 jobs: int = 1,
                 outputs: str = "full",
                 sweep_id: Optional[str] = None,
                 profile: Optional[str] = None,
                 start_method: Optional[str] = None,
                 executor: Optional[str] = None,
                 progress: Optional[Callable[[dict], None]] = None):
        self.path = os.fspath(path) if path is not None else None
        self.config = config
        self.cells = [tuple(cell) for cell in cells]
        self.jobs = jobs
        self.outputs = outputs
        self.sweep_id = sweep_id
        self.start_method = start_method
        #: Resolved executor backend; the scheduler sets this just
        #: before ``start()`` once the ``auto`` knob is resolved.
        self.executor = executor
        self.progress = progress
        self.profile = profile if (profile and self.path) else None
        self.profile_dir: Optional[str] = None
        self._handle = None
        if self.path is not None:
            self._handle = open(self.path, "w")
            if self.profile:
                self.profile_dir = profile_dir_for(self.path)
                os.makedirs(self.profile_dir, exist_ok=True)
        self._seq: Dict[str, int] = {}
        self._workers: Dict[int, dict] = {}
        self.total = len(self.cells)
        self.done = 0
        self.failed = 0
        self.trace_hits = 0
        self._start = time.perf_counter()
        self._started = False
        self._finished = False

    # -- low-level event writing ------------------------------------------

    def _emit(self, event: str, stream: str, **fields) -> dict:
        seq = self._seq.get(stream, 0)
        self._seq[stream] = seq + 1
        record = {"event": event, "stream": stream, "seq": seq,
                  "t": round(time.time(), 6)}
        record.update(fields)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        return record

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Write ``sweep_started`` (manifest, fingerprint, cell plan)."""
        if self._started:
            return
        self._started = True
        self._start = time.perf_counter()
        manifest = run_manifest(self.config) if self.config is not None \
            else None
        self._emit(
            "sweep_started", "sweep",
            schema=JOURNAL_SCHEMA,
            sweep_id=self.sweep_id,
            manifest=manifest,
            manifest_fingerprint=(manifest_fingerprint(manifest)
                                  if manifest else None),
            cells=[list(cell) for cell in self.cells],
            total_cells=self.total,
            jobs=self.jobs,
            outputs=self.outputs,
            profile=self.profile,
            start_method=self.start_method,
            executor=self.executor)

    def record_event(self, event: str, stream: str = "scheduler",
                     **fields) -> dict:
        """Journal one out-of-band event (scheduler lifecycle facts).

        The ``scheduler`` stream carries events that belong to the sweep
        as a whole but are not cell rows — ``dag_built`` (dependency
        edges, dispatch units, resumed cells) and ``plan_mismatch``
        (a stale ``order_from`` journal).  Progress-only recorders
        simply drop them, like every other event.
        """
        return self._emit(event, stream, **fields)

    def record_row(self, row: dict) -> None:
        """Journal one landed row (worker/cell events) + update progress."""
        worker = row.get("worker") or {}
        pid = worker.get("pid")
        stream = f"worker-{pid}" if pid is not None else "worker-unknown"
        if pid is not None and pid not in self._workers:
            manifest = worker.get("manifest")
            self._workers[pid] = {
                "stream": stream, "cells": 0, "wall_seconds": 0.0,
                "trace_cache_hits": 0, "manifest": manifest,
            }
            self._emit(
                "worker_started", stream, pid=pid, manifest=manifest,
                manifest_fingerprint=(manifest_fingerprint(manifest)
                                      if manifest else None))
        cell = row.get("cell") or {}
        wall = cell.get("wall_seconds")
        base = dict(index=row.get("index"), benchmark=row["benchmark"],
                    variant=row["variant"], pid=pid)
        self._emit("cell_started", stream,
                   t=cell.get("started_at"), **base)
        if row.get("error") is not None:
            self.failed += 1
            self._emit("cell_failed", stream, wall_seconds=wall,
                       error=row["error"], **base)
        else:
            self.done += 1
            payload = row.get("payload") or {}
            if row.get("trace_cache_hit"):
                self.trace_hits += 1
            if row.get("result_store_hit"):
                # only present on synthesized resume rows, so journals
                # of store-less sweeps stay byte-for-byte unchanged
                base["result_store_hit"] = True
            self._emit(
                "cell_finished", stream,
                wall_seconds=wall,
                peak_rss_kb_delta=cell.get("peak_rss_kb_delta"),
                trace_cache_hit=row.get("trace_cache_hit"),
                result_cache_hit=row.get("result_cache_hit"),
                payload_sha256=(_payload_digest(payload)
                                if payload else None),
                mpki=payload.get("mpki"),
                ipc=payload.get("ipc"),
                **base)
        if pid in self._workers:
            info = self._workers[pid]
            info["cells"] += 1
            info["wall_seconds"] += wall or 0.0
            if row.get("trace_cache_hit"):
                info["trace_cache_hits"] += 1
        if self.progress is not None:
            self.progress(self.snapshot(row))

    def finish(self) -> None:
        """Write per-worker exit summaries plus ``sweep_finished``."""
        if self._finished or not self._started:
            self.close()
            return
        self._finished = True
        for pid in sorted(self._workers):
            info = self._workers[pid]
            self._emit("worker_exited", info["stream"], pid=pid,
                       cells=info["cells"],
                       wall_seconds=round(info["wall_seconds"], 6),
                       trace_cache_hits=info["trace_cache_hits"])
        self._emit("sweep_finished", "sweep",
                   cells_done=self.done, cells_failed=self.failed,
                   total_cells=self.total,
                   wall_seconds=round(time.perf_counter() - self._start, 6),
                   ok=self.failed == 0 and
                   (self.done + self.failed) == self.total)
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    # -- progress ----------------------------------------------------------

    def snapshot(self, row: Optional[dict] = None) -> dict:
        """Live progress facts for a ``progress=`` callback / CLI line."""
        elapsed = time.perf_counter() - self._start
        landed = self.done + self.failed
        eta = (elapsed / landed * (self.total - landed)) if landed else None
        return {
            "done": self.done,
            "failed": self.failed,
            "total": self.total,
            "elapsed_seconds": elapsed,
            "eta_seconds": eta,
            "trace_cache_hit_rate": (self.trace_hits / landed
                                     if landed else None),
            "last_cell": (f"{row['benchmark']}/{row['variant']}"
                          if row is not None else None),
            # with the ordered runner, the head-of-line unlanded cell is
            # the current straggler every later row is waiting behind
            "next_cell": ("/".join(self.cells[landed])
                          if landed < len(self.cells) else None),
        }


def format_progress(snapshot: dict) -> str:
    """One-line progress rendering shared by the CLI and ``sweep watch``."""
    landed = snapshot["done"] + snapshot["failed"]
    parts = [f"sweep {landed}/{snapshot['total']} cells"]
    if snapshot["failed"]:
        parts[-1] += f" ({snapshot['failed']} FAILED)"
    rate = snapshot.get("trace_cache_hit_rate")
    if rate is not None:
        parts.append(f"trace-hit {100 * rate:.0f}%")
    elapsed = snapshot.get("elapsed_seconds")
    if elapsed is not None:
        timing = f"{elapsed:.1f}s"
        eta = snapshot.get("eta_seconds")
        if eta is not None and landed < snapshot["total"]:
            timing += f" (ETA {eta:.1f}s)"
        parts.append(timing)
    if snapshot.get("next_cell") and landed < snapshot["total"]:
        parts.append(f"waiting on {snapshot['next_cell']}")
    elif snapshot.get("last_cell"):
        parts.append(f"last {snapshot['last_cell']}")
    return " | ".join(parts)


def run_recorded(recorder: Optional[SweepRecorder], index: int,
                 benchmark: str, variant: str, fn: Callable[[], object]):
    """Run ``fn`` as one journaled cell (serial producers, e.g. sweeps).

    Builds the same row shape the parallel runner produces, records it,
    and returns the result.  Exceptions are journaled as ``cell_failed``
    and re-raised — a serial sweep's math needs every cell, so the
    journal records the failure but the caller decides whether to
    continue.
    """
    if recorder is None:
        return fn()
    from repro.sched.plan import cell_row
    started_at = time.time()
    tick = time.perf_counter()
    manifest = run_manifest(recorder.config) \
        if index == 0 and recorder.config is not None else None
    try:
        result = fn()
    except Exception as error:
        recorder.record_row(cell_row(
            benchmark, variant, index, started_at=started_at,
            wall_seconds=time.perf_counter() - tick, error=error,
            manifest=manifest))
        raise
    recorder.record_row(cell_row(
        benchmark, variant, index, started_at=started_at,
        wall_seconds=time.perf_counter() - tick, payload=result.to_dict(),
        manifest=manifest))
    return result


# -- reading ---------------------------------------------------------------

def read_journal(path: str) -> dict:
    """Parse a journal tolerantly; truncation is data, not an error.

    Returns ``{"schema", "path", "events", "complete", "truncated",
    "malformed_lines"}``.  A partial final line (killed writer) is
    dropped and counted; a missing ``sweep_finished`` marks the sweep
    incomplete.  Raises ``ValueError`` only when the file does not start
    with a ``repro-journal-v1`` ``sweep_started`` event — i.e. it is not
    a journal at all.
    """
    events: List[dict] = []
    malformed = 0
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                malformed += 1
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
            else:
                malformed += 1
    if not events or events[0].get("event") != "sweep_started" \
            or events[0].get("schema") != JOURNAL_SCHEMA:
        raise ValueError(f"{path} is not a {JOURNAL_SCHEMA} sweep journal")
    complete = any(event["event"] == "sweep_finished" for event in events)
    return {
        "schema": JOURNAL_SCHEMA,
        "path": os.fspath(path),
        "events": events,
        "complete": complete,
        "truncated": malformed > 0 or not complete,
        "malformed_lines": malformed,
    }
