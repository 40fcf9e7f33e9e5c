"""Sweep plan ordering and dispatch-unit construction (``repro.sched.plan``).

``run_cells`` compiles its cell plan into *tasks* (scalar cells plus
fused batch-replay groups).  An inline sweep dispatches one task per
unit, so journal rows land as each cell finishes.  A pool sweep groups
the tasks with :func:`build_units` into benchmark-aligned units: each
benchmark's tasks stay together, so a worker records the benchmark's
trace once and replays it for the rest of the unit, and large groups
split so the matrix keeps about ``jobs`` workers busy.

:func:`order_plan` is the ``order_from=`` scheduling hint.  It also
reports a journal whose recorded cell plan differs from the requested
one, so a stale ``--order-from`` path is visible instead of quietly
ignored.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple


class SweepPlanMismatchWarning(UserWarning):
    """An ``order_from=`` journal's cell plan differs from the request."""


def task_cells(task: Tuple) -> List[Tuple[int, str, str]]:
    """The ``(cell_index, benchmark, variant)`` members of one task."""
    benchmark = task[1]
    if isinstance(task[2], tuple):  # fused batch group
        return [(index, benchmark, variant) for variant, index in task[2]]
    return [(task[7]["index"], benchmark, task[2])]


def build_units(tasks: List[Tuple], pending: List[int],
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
        groups.setdefault(tasks[position][1], []).append(position)
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
