"""Sweep tasks, rows and dispatch units (``repro.sched.plan``).

``run_cells`` compiles its cell plan into :class:`Task` values: a
benchmark plus its ``(index, variant)`` members.  A single cell is a
one-member task; a fused batch-replay group has two or more members.
The values every task of a sweep shares (its ``RunConfig``, result
caching, outputs mode, flight-recorder metadata) travel once per
dispatch unit as one :class:`TaskContext`.  Every sweep row — executed,
fused, failed or resumed from the store — is built by :func:`cell_row`.

An inline sweep dispatches one task per unit, so journal rows land as
each cell finishes.  A pool sweep groups the tasks with
:func:`build_units` into benchmark-aligned units: each benchmark's tasks
stay together, so a worker records the benchmark's trace once and
replays it for the rest of the unit, and large groups split so the
matrix keeps about ``jobs`` workers busy.

:func:`order_plan` is the ``order_from=`` scheduling hint.  It also
reports a journal whose recorded cell plan differs from the requested
one, so a stale ``--order-from`` path is visible instead of quietly
ignored.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.config import RunConfig


class SweepPlanMismatchWarning(UserWarning):
    """An ``order_from=`` journal's cell plan differs from the request."""


@dataclass(frozen=True)
class Task:
    """One schedulable item: a benchmark and its ``(index, variant)`` cells.

    ``index`` is the cell's position in the ``run_cells`` input; a task
    with more than one member is a fused batch-replay group.
    """

    benchmark: str
    members: Tuple[Tuple[int, str], ...]

    @property
    def fused(self) -> bool:
        return len(self.members) > 1


@dataclass(frozen=True)
class TaskContext:
    """What every task of one sweep shares; pickled once per unit.

    ``config`` is the sweep's ``RunConfig`` (its ``instructions`` and
    ``warmup`` are the region every cell runs).  ``announce`` asks each
    worker to ship its run manifest on its first row of sweep
    ``sweep_id``; ``profile``/``profile_dir`` enable per-cell profiling.
    """

    config: RunConfig
    cache: bool = True
    outputs: str = "full"
    sweep_id: Optional[str] = None
    announce: bool = False
    profile: Optional[str] = None
    profile_dir: Optional[str] = None


def cell_row(benchmark: str, variant: str, index: Optional[int], *,
             started_at: float, wall_seconds: float = 0.0,
             payload: Optional[dict] = None,
             registry_state: Optional[dict] = None,
             error: Optional[BaseException] = None,
             trace_cache_hit: bool = False,
             result_cache_hit: bool = False,
             result_store_hit: bool = False,
             peak_rss_kb_delta: Optional[int] = None,
             batch_size: Optional[int] = None,
             manifest: Optional[dict] = None) -> dict:
    """The row dict one sweep cell lands as.

    ``error`` is the exception a failed cell raised; the row carries it
    as a picklable ``{type, message, traceback}`` dict with ``ok=False``.
    ``result_store_hit`` appears only on rows resumed from the store and
    ``cell.batch_size`` only on members of a fused group, so the rows
    (and journals) of other cells keep their plain shape.
    """
    row = {
        "benchmark": benchmark,
        "variant": variant,
        "index": index,
        "ok": error is None,
        "error": None if error is None else {
            "type": type(error).__name__, "message": str(error),
            "traceback": "".join(traceback.format_exception(
                type(error), error, error.__traceback__))},
        "payload": payload,
        "registry_state": registry_state,
        "trace_cache_hit": trace_cache_hit,
        "result_cache_hit": result_cache_hit,
    }
    if result_store_hit:
        row["result_store_hit"] = True
    row["cell"] = {
        "started_at": round(started_at, 6),
        "wall_seconds": round(wall_seconds, 6),
        "peak_rss_kb_delta": peak_rss_kb_delta,
    }
    if batch_size is not None:
        row["cell"]["batch_size"] = batch_size
    row["worker"] = {"pid": os.getpid(), "manifest": manifest}
    return row


def build_units(tasks: List[Task], pending: List[int],
                jobs: int) -> List[List[int]]:
    """Group pending task positions into benchmark-aligned pool units.

    Each benchmark's tasks stay together (its trace is recorded once
    per worker and replayed by the rest of the unit) and split into
    sub-units scaled so the matrix yields about ``jobs`` concurrent
    units overall, never finer than one task per unit.  Units come back
    ordered by their first task, so dispatch follows plan order.
    """
    groups: Dict[str, List[int]] = {}
    for position in pending:
        groups.setdefault(tasks[position].benchmark, []).append(position)
    total = len(pending)
    units = []
    for group in groups.values():
        parts = min(len(group), max(1, -(-len(group) * jobs // total)))
        size = -(-len(group) // parts)
        for start in range(0, len(group), size):
            units.append(group[start:start + size])
    units.sort(key=lambda unit: unit[0])
    return units


def order_plan(plan: List[Tuple[int, Tuple[str, str]]],
               journal_path: str
               ) -> Tuple[List[Tuple[int, Tuple[str, str]]],
                          Optional[dict]]:
    """Reorder an indexed cell plan by a prior journal's wall seconds.

    Longest first; cells the journal never timed sort ahead of timed
    ones (an unknown cell may be arbitrarily expensive, so schedule it
    before the known-long tail).  Ties and unknowns keep plan order (the
    sort is stable).  Any read or parse failure returns the plan as-is:
    ordering is a scheduling hint, never a correctness input.

    Additionally compares the journal's recorded cell plan against the
    requested one; on a mismatch the second return value is a structured
    ``{"journal", "unmatched_requested", "unmatched_journal"}`` dict
    (otherwise None) — the caller warns and journals it instead of the
    old silent fallback.
    """
    from repro.observe.journal import read_journal
    try:
        journal = read_journal(journal_path)
    except (OSError, ValueError):
        return plan, None
    recorded = [tuple(cell) for cell in
                (journal["events"][0].get("cells") or [])]
    mismatch = None
    if recorded:
        requested = [cell for _, cell in plan]
        if sorted(recorded) != sorted(requested):
            requested_set, recorded_set = set(requested), set(recorded)
            mismatch = {
                "journal": os.fspath(journal_path),
                "unmatched_requested": sorted(
                    "/".join(cell)
                    for cell in requested_set - recorded_set),
                "unmatched_journal": sorted(
                    "/".join(cell)
                    for cell in recorded_set - requested_set),
            }
    walls: Dict[Tuple[str, str], float] = {}
    for event in journal["events"]:
        if event.get("event") not in ("cell_finished", "cell_failed"):
            continue
        wall = event.get("wall_seconds")
        if wall is not None and event.get("benchmark") is not None:
            walls[(event["benchmark"], event["variant"])] = wall
    if not walls:
        return plan, mismatch
    infinity = float("inf")
    return sorted(plan, key=lambda item: -walls.get(item[1], infinity)), \
        mismatch


def describe_mismatch(mismatch: dict) -> str:
    """One-line human rendering shared by the warning and the report."""
    parts = []
    if mismatch["unmatched_requested"]:
        parts.append(f"{len(mismatch['unmatched_requested'])} requested "
                     f"cell(s) missing from the journal plan: "
                     + ", ".join(mismatch["unmatched_requested"]))
    if mismatch["unmatched_journal"]:
        parts.append(f"{len(mismatch['unmatched_journal'])} journal "
                     f"cell(s) not in this sweep: "
                     + ", ".join(mismatch["unmatched_journal"]))
    return (f"order_from journal {mismatch['journal']} records a "
            f"different cell plan ({'; '.join(parts)}); its timings "
            f"only order the overlapping cells")
