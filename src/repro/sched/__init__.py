"""Sweep scheduling (``repro.sched``).

The subsystem behind ``run_cells``: plan ordering and benchmark-aligned
dispatch units (:mod:`~repro.sched.plan`), the inline and pool executor
backends (:mod:`~repro.sched.executors`), a content-addressed result
store for crash-resumable sweeps (:mod:`~repro.sched.store`), and the
dispatch loop tying them together (:mod:`~repro.sched.scheduler`).
"""

from repro.sched.executors import (
    EXECUTOR_CHOICES,
    InlineExecutor,
    PoolExecutor,
    resolve_executor_name,
)
from repro.sched.plan import (
    SweepPlanMismatchWarning,
    build_units,
    describe_mismatch,
    order_plan,
    task_cells,
)
from repro.sched.scheduler import SweepScheduler, store_outputs_mode
from repro.sched.store import RESULT_FORMAT_VERSION, ResultStore, result_key

__all__ = [
    "EXECUTOR_CHOICES", "InlineExecutor", "PoolExecutor",
    "resolve_executor_name",
    "SweepPlanMismatchWarning", "build_units", "describe_mismatch",
    "order_plan", "task_cells",
    "SweepScheduler", "store_outputs_mode",
    "RESULT_FORMAT_VERSION", "ResultStore", "result_key",
]
