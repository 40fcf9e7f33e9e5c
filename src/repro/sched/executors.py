"""Sweep executor backends (``repro.sched.executors``).

The scheduler dispatches *units* (lists of tasks) through one of two
backends, chosen by the config-layered ``executor`` knob:

* ``inline`` — runs units in the calling process, one at a time
  (``max_inflight=1``), preserving the serial runner's per-cell
  streaming (journal rows and progress callbacks land as each cell
  finishes, which the kill-mid-sweep journal semantics rely on);
* ``pool`` — a ``multiprocessing`` pool (fork preferred, spawn
  fallback; ``start_method``/``REPRO_MP_START`` forces one), completing
  units via ``apply_async`` callbacks so finished units drain in
  completion order.

Both implement ``submit(unit_id, fn, arg, done)``, which must
eventually invoke ``done(unit_id, result_or_exception)`` exactly once.
``auto`` (the default) picks ``inline`` for serial or single-unit
sweeps and ``pool`` otherwise.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.registry import UnknownComponentError

#: Valid ``executor`` values (the CLI ``--executor`` choices).
EXECUTOR_CHOICES = ("auto", "inline", "pool")


class InlineExecutor:
    """Run units synchronously in the calling process."""

    max_inflight: Optional[int] = 1

    def start(self) -> None:
        pass

    def submit(self, unit_id: int, fn: Callable, arg,
               done: Callable[[int, object], None]) -> None:
        # exceptions propagate to the caller, matching the serial
        # runner: an infrastructure failure (not a cell error, those are
        # structured rows) aborts the sweep with a truncated journal
        done(unit_id, fn(arg))

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "InlineExecutor()"


class PoolExecutor:
    """``multiprocessing.Pool`` backend (fork preferred, spawn fallback)."""

    max_inflight: Optional[int] = None

    def __init__(self, jobs: int, start_method: Optional[str] = None):
        self.jobs = max(1, jobs)
        self.start_method = start_method
        self._pool = None

    def start(self) -> None:
        import multiprocessing
        if self.start_method is not None:
            context = multiprocessing.get_context(self.start_method)
        else:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # platform without fork
                context = multiprocessing.get_context("spawn")
        self._pool = context.Pool(processes=self.jobs)

    def submit(self, unit_id: int, fn: Callable, arg,
               done: Callable[[int, object], None]) -> None:
        self._pool.apply_async(
            fn, (arg,),
            callback=lambda result: done(unit_id, result),
            error_callback=lambda error: done(unit_id, error))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __repr__(self) -> str:
        return (f"PoolExecutor(jobs={self.jobs}, "
                f"start_method={self.start_method!r})")


def resolve_executor_name(name: Optional[str], jobs: int,
                          pending_tasks: int) -> str:
    """Map the layered ``executor`` knob to ``"inline"`` or ``"pool"``.

    ``auto`` (or empty) keeps the flat runner's branch: serial sweeps
    and single-task sweeps run inline, everything else pools.  Unknown
    names raise :class:`~repro.registry.UnknownComponentError`, which
    suggests near misses and lists the valid choices.
    """
    if name in (None, "", "auto"):
        return "pool" if jobs > 1 and pending_tasks > 1 else "inline"
    if name not in EXECUTOR_CHOICES:
        raise UnknownComponentError("executor", name, list(EXECUTOR_CHOICES))
    return name
