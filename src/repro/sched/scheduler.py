"""Sweep dispatch (``repro.sched.scheduler``).

:class:`SweepScheduler` runs ``run_cells``'s compiled tasks as a plan →
probe → dispatch pipeline:

1. **Store probe** — when the session has a content-addressed
   :class:`~repro.sched.store.ResultStore`, every task's cells are probed
   first; a task whose every member already landed (an earlier killed
   sweep of the same config) is *resumed*: its rows are synthesized from
   the store and never dispatched.
2. **Units** — an inline sweep dispatches one task per unit; a pool
   sweep groups the remaining tasks into benchmark-aligned units
   (:func:`~repro.sched.plan.build_units`).  The plan is journaled as a
   ``dag_built`` scheduler event.
3. **Dispatch** — units go to an
   :class:`~repro.sched.executors.InlineExecutor` or
   :class:`~repro.sched.executors.PoolExecutor`; completions drain
   through one queue in whatever order workers finish them.

Rows are **recorded in task order** regardless of completion order: a
per-task buffer plus a cursor flush the contiguous prefix, which keeps
journal event sequences — and therefore journal digests — identical for
any job count.

This module never imports :mod:`repro.session` (the worker entry point
is injected), so the scheduler stays importable from workers and tools
without dragging the session machinery in.
"""

from __future__ import annotations

import functools
import queue
import time
from typing import Callable, Dict, List, Optional

from repro.sched.executors import (
    InlineExecutor,
    PoolExecutor,
    resolve_executor_name,
)
from repro.sched.plan import Task, TaskContext, build_units, cell_row
from repro.sched.store import ResultStore, result_key
from repro.sim.variants import cell_outputs_mode

#: Scheduler counters published under ``host.scheduler.*`` (satellite:
#: StatRegistry visibility without touching any scalar payload digest).
_STAT_FIELDS = ("cells_scheduled", "cells_resumed_from_store", "units")


class SweepScheduler:
    """One sweep's plan, store probe, and dispatch loop.

    ``tasks`` is ``run_cells``'s compiled task list (single cells and
    fused batch groups, already plan-ordered) and ``context`` the values
    they all share; ``worker_fn`` is the picklable unit entry point
    (``repro.session._run_unit``) that maps ``(context, tasks)`` to one
    row list per task.  ``store=None`` disables both the resume probe
    and write-through (``cache=False`` sweeps, or no
    ``result_store_dir`` configured).
    """

    def __init__(self, tasks: List[Task], context: TaskContext,
                 worker_fn: Callable[[TaskContext, List[Task]],
                                     List[List[dict]]],
                 inline_fn: Optional[
                     Callable[[TaskContext, List[Task]],
                              List[List[dict]]]] = None,
                 jobs: int = 1,
                 executor: Optional[str] = None,
                 start_method: Optional[str] = None,
                 recorder=None,
                 store: Optional[ResultStore] = None,
                 mismatch: Optional[dict] = None):
        self.tasks = tasks
        self.context = context
        self.worker_fn = worker_fn
        #: Unpicklable shortcut for the inline backend: runs units
        #: directly against the calling session (the classic serial
        #: path), instead of re-resolving a session from the config.
        self.inline_fn = inline_fn
        self.jobs = max(1, jobs)
        self.executor_knob = executor
        self.start_method = start_method
        self.recorder = recorder
        self.store = store
        self.mismatch = mismatch
        self.fingerprint = context.config.fingerprint()
        self.executor_name: Optional[str] = None
        self.units = 0
        self.cells_scheduled = 0
        self.cells_resumed_from_store = 0

    # -- store integration -------------------------------------------------

    def _cell_key(self, benchmark: str, variant: str) -> str:
        config = self.context.config
        return result_key(self.fingerprint, benchmark, variant,
                          config.instructions, config.warmup,
                          cell_outputs_mode(self.context.outputs, variant))

    def _probe_task(self, task: Task,
                    carry_manifest: bool) -> Optional[List[dict]]:
        """Synthesized rows for a fully-landed task, else None.

        A batch group resumes only when *every* member landed — the fused
        replay is all-or-nothing, and a partial group re-executes whole
        (its already-landed members are simply re-stored as no-op puts).
        The first synthesized row of a journaled sweep carries the
        parent's run manifest so the journal's drift audit can still
        vouch for the stream these rows land on.
        """
        records = []
        for _, variant in task.members:
            record = self.store.get(self._cell_key(task.benchmark, variant))
            if record is None:
                return None
            records.append(record)
        rows: List[dict] = []
        for position, ((index, variant), record) in \
                enumerate(zip(task.members, records)):
            manifest = None
            if carry_manifest and position == 0 \
                    and self.recorder is not None \
                    and self.recorder.path is not None:
                from repro.observe.manifest import run_manifest
                manifest = run_manifest(self.context.config)
            rows.append(cell_row(
                task.benchmark, variant, index, started_at=time.time(),
                payload=record["payload"],
                registry_state=record["registry_state"],
                result_store_hit=True, manifest=manifest))
        return rows

    def _store_rows(self, rows: List[dict]) -> None:
        """Write-through: land each ok row's result under its cell key."""
        if self.store is None:
            return
        for row in rows:
            if not row.get("ok") or row.get("payload") is None:
                continue
            self.store.put(
                self._cell_key(row["benchmark"], row["variant"]),
                {"benchmark": row["benchmark"],
                 "variant": row["variant"],
                 "payload": row["payload"],
                 "registry_state": row["registry_state"]})

    # -- the dispatch loop -------------------------------------------------

    def run(self) -> List[dict]:
        """Execute the sweep; rows come back in task (plan) order."""
        tasks = self.tasks
        task_rows: Dict[int, List[dict]] = {}
        resumed_cells: List[int] = []
        if self.store is not None:
            for position, task in enumerate(tasks):
                rows = self._probe_task(
                    task, carry_manifest=not resumed_cells)
                if rows is not None:
                    task_rows[position] = rows
                    resumed_cells.extend(
                        index for index, _ in task.members)
        pending = [position for position in range(len(tasks))
                   if position not in task_rows]
        self.cells_resumed_from_store = len(resumed_cells)
        self.cells_scheduled = sum(len(tasks[position].members)
                                   for position in pending)
        self.executor_name = resolve_executor_name(
            self.executor_knob, self.jobs, len(pending))
        inline = self.executor_name == "inline"
        if inline:
            units = [[position] for position in pending]
        else:
            units = build_units(tasks, pending, self.jobs)
        self.units = len(units)

        if self.recorder is not None:
            self.recorder.executor = self.executor_name
            self.recorder.start()
            if self.mismatch is not None:
                self.recorder.record_event("plan_mismatch",
                                           **self.mismatch)
            self.recorder.record_event(
                "dag_built",
                nodes=len(tasks),
                units=len(units),
                executor=self.executor_name,
                jobs=self.jobs,
                resumed_cells=sorted(resumed_cells))

        rows_out: List[dict] = []
        cursor = 0

        def flush() -> None:
            # record/return strictly by task (= plan) position: identical
            # journal sequences for any job count
            nonlocal cursor
            while cursor < len(tasks) and cursor in task_rows:
                for row in task_rows[cursor]:
                    if self.recorder is not None:
                        self.recorder.record_row(row)
                    rows_out.append(row)
                cursor += 1

        flush()  # leading resumed tasks stream immediately
        if not units:
            return rows_out

        unit_fn = functools.partial(
            self.inline_fn if inline and self.inline_fn
            else self.worker_fn, self.context)
        done_queue: "queue.SimpleQueue" = queue.SimpleQueue()

        def done(unit_id: int, outcome) -> None:
            done_queue.put((unit_id, outcome))

        executor = InlineExecutor() if inline else \
            PoolExecutor(min(self.jobs, len(units)), self.start_method)
        limit = executor.max_inflight
        submitted = inflight = 0
        try:
            executor.start()
            for _ in units:
                while submitted < len(units) and \
                        (limit is None or inflight < limit):
                    executor.submit(submitted, unit_fn,
                                    [tasks[position]
                                     for position in units[submitted]],
                                    done)
                    submitted += 1
                    inflight += 1
                unit_id, outcome = done_queue.get()
                inflight -= 1
                if isinstance(outcome, BaseException):
                    # infrastructure failure (cell errors come back as
                    # structured rows, never exceptions): abort the sweep
                    raise outcome
                for position, rows in zip(units[unit_id], outcome):
                    task_rows[position] = rows
                    self._store_rows(rows)
                flush()
        finally:
            executor.close()
        return rows_out

    # -- stats -------------------------------------------------------------

    def stats(self) -> dict:
        """Scheduling facts for reports and ``Session.last_sweep``."""
        info = {
            "executor": self.executor_name,
            "cells_scheduled": self.cells_scheduled,
            "cells_resumed_from_store": self.cells_resumed_from_store,
            "units": self.units,
        }
        if self.store is not None:
            info["store"] = self.store.stats()
        return info

    def register_into(self, registry) -> None:
        """Publish ``host.scheduler.*`` counters on a merged registry.

        Host-scoped on purpose: payload digests strip ``stats.host``, so
        scheduler visibility never perturbs a scalar-identical payload.
        """
        if self.executor_name is None:
            return  # run() never happened; nothing to report
        stats = self.stats()
        scope = registry.scope("host").scope("scheduler")
        for name in _STAT_FIELDS:
            scope.counter(name).set(stats[name])
        scope.scope("executor").counter(self.executor_name).set(1)
        if self.store is not None:
            self.store.register_into(scope.scope("store"))
