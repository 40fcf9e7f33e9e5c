"""Session-scoped experiment state (``repro.session``).

A :class:`Session` owns everything that used to be a module global in
``repro.sim.experiments`` — the bounded result-cache LRU, the shared
committed-trace cache, the merged stat registry — bound to one frozen
:class:`~repro.config.RunConfig`.  Two sessions with different configs
coexist in one process with fully independent caches, which is the
prerequisite for sharded and multi-backend runners (and for tests that
need isolation without global resets).

The classic convenience API (``experiments.run`` & friends) is preserved
by a *default session* that re-resolves its config from the environment
on every entry call: setting ``REPRO_INSTRUCTIONS`` or
``REPRO_CACHE_SIZE`` mid-process (monkeypatching tests, spawn-start
workers) takes effect on the next call instead of being frozen at import.
Explicit sessions never re-resolve — their config is exactly what they
were constructed with.

Worker processes: each dispatch unit pickles the parent's ``RunConfig``
once, in its :class:`~repro.sched.TaskContext`; the worker resolves it to
a session via :func:`_session_for_config`, so a
spawn-start worker reconstructs the *exact* parent configuration instead
of re-deriving one from inherited environment variables, while a
fork-start worker reuses the inherited warm session (trace cache
included) when the config matches.
"""

from __future__ import annotations

import os
import time
import uuid
import warnings as _warnings
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from repro.config import RunConfig, current_config, resolve_jobs
from repro.predictors.registry import make_predictor
from repro.sched import (
    ResultStore,
    SweepPlanMismatchWarning,
    SweepScheduler,
    Task,
    TaskContext,
    cell_row,
    describe_mismatch,
    order_plan,
)
from repro.sim.predictor_replay import replay_mpki, replay_mpki_batch
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache, program_fingerprint
from repro.sim.variants import (
    cell_outputs_mode,
    variant_kwargs,
    variant_names,
)
from repro.telemetry import StatRegistry
from repro.telemetry.timers import peak_rss_kb
from repro.workloads import suite


def _result_key(benchmark: str, variant: str, instructions: int,
                warmup: int, mode: str,
                br_overrides: Optional[dict] = None) -> Tuple:
    """A cell's result-cache key, shared by scalar and batched runs."""
    overrides = tuple(sorted(br_overrides.items())) if br_overrides \
        else ()
    return (benchmark, variant, instructions, warmup, overrides, mode)


class Session:
    """One experiment context: a config plus the caches it governs."""

    def __init__(self, config: Optional[RunConfig] = None,
                 trace_cache: Optional[TraceCache] = None):
        if config is None:
            config = current_config()
        self.config = config.validate()
        #: Shared committed-trace cache: one functional emulation per
        #: benchmark region, replayed by every variant of this session.
        self.trace_cache = trace_cache if trace_cache is not None else \
            TraceCache(capacity=config.trace_cache_size,
                       disk_dir=config.trace_cache_dir)
        #: Bounded result-cache LRU, keyed by (benchmark, variant,
        #: region, overrides, outputs-mode).
        self._results: "OrderedDict[Tuple, SimulationResult]" = \
            OrderedDict()
        #: Cross-cell merged stats (counters add, gauges newest); fed by
        #: ``run_cells(..., merge=True)`` / ``run_matrix(merged=True)``.
        self.registry = StatRegistry()
        #: Result-cache hit counter (journal cell events report per-cell
        #: hit flags the same way the trace cache already does).
        self.result_cache_hits = 0
        #: Content-addressed cell-result store: landed sweep results
        #: persist here, making a killed sweep resumable (see
        #: :mod:`repro.sched.store`).  None unless the config names a
        #: directory.
        self.result_store: Optional[ResultStore] = \
            ResultStore(config.result_store_dir) \
            if config.result_store_dir else None
        #: Scheduling facts of the most recent ``run_cells`` sweep
        #: (executor, resumed/scheduled cell counts, units).
        self.last_sweep: Optional[dict] = None
        self._last_scheduler: Optional[SweepScheduler] = None

    # -- config management -------------------------------------------------

    def reconfigure(self, config: RunConfig) -> None:
        """Adopt a new config in place, preserving still-valid cache state.

        Cache *contents* stay (results are keyed by their full region
        parameters, so a region-length change cannot alias); cache
        *bounds* and the trace-cache spill directory follow the new
        config, trimming immediately when shrunk.
        """
        config.validate()
        old = self.config
        self.config = config
        if config.result_cache_size < old.result_cache_size:
            while len(self._results) > config.result_cache_size:
                self._results.popitem(last=False)
        cache = self.trace_cache
        if config.trace_cache_size != old.trace_cache_size:
            cache.capacity = config.trace_cache_size
            while len(cache._entries) > cache.capacity:
                cache._entries.popitem(last=False)
                cache.evictions += 1
        if config.trace_cache_dir != old.trace_cache_dir:
            cache.disk_dir = config.trace_cache_dir
        if config.result_store_dir != old.result_store_dir:
            self.result_store = ResultStore(config.result_store_dir) \
                if config.result_store_dir else None

    # -- result cache ------------------------------------------------------

    @property
    def result_cache(self) -> "OrderedDict[Tuple, SimulationResult]":
        return self._results

    def _cache_get(self, key: Tuple) -> Optional[SimulationResult]:
        result = self._results.get(key)
        if result is not None:
            self._results.move_to_end(key)
            self.result_cache_hits += 1
        return result

    def _cache_put(self, key: Tuple, result: SimulationResult) -> None:
        if key in self._results:
            self._results.move_to_end(key)
        self._results[key] = result
        while len(self._results) > self.config.result_cache_size:
            self._results.popitem(last=False)

    def clear_caches(self) -> None:
        """Drop this session's caches (bench harness isolation)."""
        self._results.clear()
        self.trace_cache.clear()

    # -- single cells ------------------------------------------------------

    def run(self, benchmark: str, variant: str,
            instructions: Optional[int] = None,
            warmup: Optional[int] = None,
            br_overrides: Optional[dict] = None,
            cache: bool = True,
            trace_cache: Optional[TraceCache] = None,
            outputs: str = "full",
            merge: bool = False) -> SimulationResult:
        """Run (or fetch from cache) one benchmark under one variant.

        ``br_overrides`` tweaks the variant's BranchRunaheadConfig (used
        by the Figure 13 sweeps); overridden runs are cached under their
        own key.  ``cache=False`` bypasses the result cache entirely — no
        lookup, no store.  ``trace_cache`` defaults to the session's
        shared instance.  ``merge=True`` folds a freshly computed cell's
        registry into the session-wide :attr:`registry` (cache hits were
        already folded when first computed, so they are not re-merged).

        ``outputs="mpki"`` declares that only branch-outcome statistics
        are wanted: predictor-only cells then take the
        :func:`~repro.sim.predictor_replay.replay_mpki` fast path
        (bit-identical MPKI, no timing model) and return a
        :class:`~repro.sim.predictor_replay.PredictorReplayResult`.
        Cells whose variant attaches Branch Runahead fall back to the
        full simulator — their mispredict counts depend on DCE timing.
        """
        if outputs not in ("full", "mpki"):
            raise ValueError(f"unknown outputs mode {outputs!r}")
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        mode = cell_outputs_mode(outputs, variant, br_overrides)
        key = _result_key(benchmark, variant, instructions, warmup, mode,
                          br_overrides)
        if cache:
            cached = self._cache_get(key)
            if cached is not None:
                return cached

        kwargs = variant_kwargs(variant)
        if br_overrides:
            config = kwargs.get("br_config")
            if config is None:
                raise ValueError(f"variant {variant!r} has no BR config "
                                 f"to override")
            for attr, value in br_overrides.items():
                if not hasattr(config, attr):
                    raise AttributeError(
                        f"unknown BR config field {attr!r}")
                setattr(config, attr, value)
        program = suite.load(benchmark)
        region_cache = trace_cache if trace_cache is not None \
            else self.trace_cache
        if mode == "mpki":
            result = replay_mpki(program, kwargs["predictor"],
                                 instructions=instructions, warmup=warmup,
                                 trace_cache=region_cache)
        else:
            result = simulate(program, instructions=instructions,
                              warmup=warmup, trace_cache=region_cache,
                              **kwargs)
        if merge:
            self.registry.merge(result.build_registry())
        if cache:
            self._cache_put(key, result)
        return result

    def run_all(self, variant: str, benchmarks=None, **kwargs):
        """Run a variant over the benchmark list; returns {name: result}."""
        names = benchmarks or suite.BENCHMARK_NAMES
        return {name: self.run(name, variant, **kwargs) for name in names}

    # -- direct entry points (notebook / service callers) ------------------

    def simulate(self, benchmark, cache: bool = True,
                 **kwargs) -> SimulationResult:
        """Cache-sharing :func:`~repro.sim.simulator.simulate` entry.

        ``benchmark`` is a registered name or a ``Program``; region
        bounds default to the session config and the session's trace
        cache is always attached — a notebook or service caller gets the
        same one-emulation-per-region behaviour as ``run`` without going
        through variant tokens.  Component kwargs (``predictor``,
        ``br_config``) pass through; results are memoized in the result
        cache when every kwarg is a plain hashable value (registry-name
        strings, numbers), and computed fresh otherwise (component
        *instances* carry state the cache must not alias, and a
        ``tracer`` must observe a live run).  A ``Program`` is cached by
        its content fingerprint, never by its name alone: two programs
        that share a name do not share a result.
        """
        program = suite.load(benchmark) if isinstance(benchmark, str) \
            else benchmark
        if kwargs.get("instructions") is None:
            kwargs["instructions"] = self.config.instructions
        if kwargs.get("warmup") is None:
            kwargs["warmup"] = self.config.warmup
        key = None
        if cache and all(
                isinstance(value, (str, int, float, bool, type(None)))
                for value in kwargs.values()):
            source = benchmark if isinstance(benchmark, str) \
                else program_fingerprint(program)
            key = (source, "simulate", tuple(sorted(kwargs.items())))
            cached = self._cache_get(key)
            if cached is not None:
                return cached
        result = simulate(program, trace_cache=self.trace_cache, **kwargs)
        if key is not None:
            self._cache_put(key, result)
        return result

    def replay_mpki(self, benchmark: str, predictor,
                    instructions: Optional[int] = None,
                    warmup: Optional[int] = None,
                    cache: bool = True):
        """MPKI-only replay through this session's trace cache.

        With a registered predictor *name* this is exactly
        ``run(benchmark, name, outputs="mpki")`` — same fast path, same
        result cache, bit-identical MPKI.  A predictor *instance* (whose
        state the caller owns) replays uncached against the shared trace
        cache.
        """
        if isinstance(predictor, str):
            return self.run(benchmark, predictor,
                            instructions=instructions, warmup=warmup,
                            cache=cache, outputs="mpki")
        program = suite.load(benchmark)
        return replay_mpki(
            program, predictor,
            instructions=instructions or self.config.instructions,
            warmup=warmup if warmup is not None else self.config.warmup,
            trace_cache=self.trace_cache)

    def run_batch(self, benchmark: str, variants: Sequence[str],
                  instructions: Optional[int] = None,
                  warmup: Optional[int] = None,
                  cache: bool = True) -> List[Tuple[object, bool]]:
        """Run K predictor-only MPKI cells of one benchmark in one pass.

        Returns ``[(result, result_cache_hit), ...]`` in ``variants``
        order (see :meth:`_replay_batch`).  Raises ``ValueError`` for a
        variant that is not predictor-only — batched replay cannot model
        Branch Runahead timing — and re-raises the first member's error.
        """
        for variant in variants:
            if cell_outputs_mode("mpki", variant) != "mpki":
                raise ValueError(
                    f"variant {variant!r} is not predictor-only; "
                    f"batched MPKI replay cannot model it")
        outcomes = self._replay_batch(
            benchmark, variants,
            instructions or self.config.instructions,
            warmup if warmup is not None else self.config.warmup, cache)
        for _, _, error in outcomes:
            if error is not None:
                raise error
        return [(result, hit) for result, hit, _ in outcomes]

    def _replay_batch(self, benchmark: str, variants: Sequence[str],
                      instructions: int, warmup: int, cache: bool
                      ) -> List[Tuple[object, bool, Optional[Exception]]]:
        """Predictor-only MPKI cells of one benchmark, replayed together.

        Returns ``(result, result_cache_hit, error)`` per variant.  Cached
        cells are served from the result cache under the *same* keys the
        scalar path uses; the misses replay in one
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` call and are
        cached individually, so a later scalar ``run(...,
        outputs="mpki")`` of any member hits.  A member whose variant
        fails to resolve carries its own error and the rest still replay;
        a failure of the shared replay is every replayed member's error.
        """
        keys = [_result_key(benchmark, variant, instructions, warmup, "mpki")
                for variant in variants]
        out: List[Tuple[object, bool, Optional[Exception]]] = []
        lanes = []
        for position, (variant, key) in enumerate(zip(variants, keys)):
            cached = self._cache_get(key) if cache else None
            out.append((cached, cached is not None, None))
            if cached is not None:
                continue
            try:
                lanes.append((position, make_predictor(
                    variant_kwargs(variant)["predictor"])))
            except Exception as exc:
                out[position] = (None, False, exc)
        if not lanes:
            return out
        try:
            results = replay_mpki_batch(
                suite.load(benchmark),
                [predictor for _, predictor in lanes],
                instructions=instructions, warmup=warmup,
                trace_cache=self.trace_cache,
                min_lanes=self.config.batch_min_lanes)
        except Exception as exc:
            for position, _ in lanes:
                out[position] = (None, False, exc)
            return out
        for (position, _), result in zip(lanes, results):
            if cache:
                self._cache_put(keys[position], result)
            out[position] = (result, False, None)
        return out

    def manifest(self, phase_seconds=None) -> dict:
        """This session's run manifest (see :mod:`repro.observe.manifest`).

        Stamped onto baselines and bench reports produced under this
        session; the config fingerprint inside is the comparability key.
        """
        from repro.observe.manifest import run_manifest
        return run_manifest(self.config, phase_seconds=phase_seconds)

    # -- parallel matrix ---------------------------------------------------

    def run_cells(self, cells: Sequence[Tuple[str, str]],
                  instructions: Optional[int] = None,
                  warmup: Optional[int] = None,
                  jobs: Optional[int] = None,
                  cache: bool = True,
                  outputs: str = "full",
                  merge: bool = False,
                  journal: Optional[str] = None,
                  progress: Optional[Callable[[dict], None]] = None,
                  start_method: Optional[str] = None,
                  order_from: Optional[str] = None,
                  executor: Optional[str] = None) -> List[dict]:
        """Run many ``(benchmark, variant)`` cells, optionally in parallel.

        Returns one dict per cell — ``{"benchmark", "variant", "payload",
        "registry_state", "trace_cache_hit", ...}`` with ``payload =
        SimulationResult.to_dict()`` — in the *input* order regardless of
        worker scheduling, so output is deterministic for any job count.
        ``jobs`` defaults to the session config (explicit argument wins);
        a pool sweep dispatches each benchmark's cells together, so a
        worker keeps per-benchmark trace-cache locality.
        ``merge=True`` additionally folds every cell's registry into
        :attr:`registry`.

        A *raising* cell never aborts the sweep: its row carries
        ``ok=False`` and a structured ``error`` (exception class,
        message, traceback) with ``payload=None``, and the remaining
        cells still run.  ``journal=PATH`` records the sweep as an
        append-only ``repro-journal-v1`` event stream (see
        :mod:`repro.observe.journal`) — rows are recorded in plan order
        as units finish, not at the barrier; ``progress`` is called with
        a live snapshot dict after every row.  ``start_method`` (or
        ``REPRO_MP_START``) forces the multiprocessing start method; the
        default prefers ``fork`` and falls back to ``spawn``.

        ``order_from=PATH`` names a prior sweep's journal: cells are
        *executed* longest-wall-first (cells the journal has no timing
        for go first), which trims the parallel tail when cell costs
        are skewed — returned rows stay in input order regardless.  An
        unreadable or non-journal file silently falls back to plan
        order; a journal whose recorded plan names *different cells*
        raises a :class:`~repro.sched.SweepPlanMismatchWarning` (and
        journals a ``plan_mismatch`` event) listing the unmatched cells.

        Execution is compiled through :class:`~repro.sched.SweepScheduler`
        and dispatched over the executor backend named by ``executor``
        (argument > config ``executor`` knob; ``auto`` keeps the classic
        inline/pool split).  When the session has a
        :attr:`result_store` and ``cache=True``, every
        landed cell is written through to the store and cells that
        already landed there — e.g. from a sweep killed partway — are
        resumed without re-execution (their journal rows carry
        ``result_store_hit``).

        When ``outputs="mpki"``, groups of two or more predictor-only
        cells sharing a benchmark collapse into one batched
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` call (one
        region load, one stream pass for the whole group) while still
        producing one row per cell with scalar-identical payloads and
        result-cache keys.  Per-cell profiling (``REPRO_PROFILE``)
        disables batching, since a fused group's cells cannot be
        attributed individually.
        """
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        jobs = max(1, jobs) if jobs is not None else self.config.jobs
        executor = executor if executor is not None \
            else self.config.executor
        task_config = self.config.replace(
            instructions=instructions, warmup=warmup)
        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START") or None

        recorder = None
        profile_mode = None
        if journal is not None or progress is not None:
            from repro.observe.journal import PROFILE_ENV, SweepRecorder
            if journal is not None:
                profile_mode = os.environ.get(PROFILE_ENV) or None
            jobs_effective = min(jobs, len(cells)) if cells else jobs
            recorder = SweepRecorder(
                journal, config=task_config, cells=cells,
                jobs=jobs_effective, outputs=outputs,
                sweep_id=uuid.uuid4().hex, profile=profile_mode,
                start_method=start_method, progress=progress)
        context = TaskContext(
            config=task_config, cache=cache, outputs=outputs,
            sweep_id=recorder.sweep_id if recorder else None,
            # worker manifests are only worth a git subprocess when a
            # journal will actually record them
            announce=journal is not None,
            profile=recorder.profile if recorder else None,
            profile_dir=recorder.profile_dir if recorder else None)
        plan = list(enumerate(cells))
        mismatch = None
        if order_from is not None:
            plan, mismatch = order_plan(plan, order_from)
            if mismatch is not None:
                _warnings.warn(
                    SweepPlanMismatchWarning(describe_mismatch(mismatch)),
                    stacklevel=2)
        # two or more MPKI-mode cells of one benchmark fuse into one task
        groups: Dict[str, List[Tuple[int, str]]] = {}
        if len(cells) > 1 and profile_mode is None:
            for index, (benchmark, variant) in plan:
                if cell_outputs_mode(outputs, variant) == "mpki":
                    groups.setdefault(benchmark, []).append(
                        (index, variant))
        tasks: List[Task] = []
        for index, (benchmark, variant) in plan:
            members = groups.get(benchmark, [])
            if len(members) < 2 or (index, variant) not in members:
                tasks.append(Task(benchmark, ((index, variant),)))
            elif members[0][0] == index:
                # the whole group runs at the position of its first
                # member; rows are re-sorted to input order at the end
                tasks.append(Task(benchmark, tuple(members)))
        scheduler = SweepScheduler(
            tasks, context, _run_unit,
            inline_fn=lambda context, unit: [
                _run_task(self, context, task) for task in unit],
            jobs=jobs, executor=executor,
            start_method=start_method, recorder=recorder,
            store=self.result_store if cache else None,
            mismatch=mismatch)
        try:
            # publish this session so fork workers find it warm (and
            # spawn workers rebuild an equivalent one from the pickled
            # task config); unpublished in the finally so repeated
            # sweeps cannot pin dead sessions for the process lifetime
            _worker_sessions[task_config] = self
            try:
                rows = scheduler.run()
            finally:
                _worker_sessions.pop(task_config, None)
        except BaseException:
            if recorder is not None:
                # leave the journal truncated (no sweep_finished): a
                # killed or crashed sweep reads back as cleanly
                # incomplete, which is what resume will key on
                recorder.close()
            raise
        else:
            if recorder is not None:
                recorder.finish()
        self.last_sweep = scheduler.stats()
        self._last_scheduler = scheduler
        # reordering (order_from) and batch grouping both run cells out
        # of plan sequence; the return contract is input order
        rows.sort(key=lambda row: row["index"])
        if merge:
            merged = merged_registry(rows)
            scheduler.register_into(merged)
            self.registry.merge(merged)
        return rows

    def run_matrix(self, variants: Optional[Iterable[str]] = None,
                   benchmarks: Optional[Iterable[str]] = None,
                   instructions: Optional[int] = None,
                   warmup: Optional[int] = None,
                   jobs: Optional[int] = None,
                   cache: bool = True,
                   outputs: str = "full",
                   merged: bool = False,
                   journal: Optional[str] = None,
                   progress: Optional[Callable[[dict], None]] = None,
                   order_from: Optional[str] = None,
                   executor: Optional[str] = None):
        """Run a variant × benchmark matrix; returns nested payload dicts.

        ``result[benchmark][variant]`` is the cell's
        :meth:`~repro.sim.results.SimulationResult.to_dict` payload — or
        ``{"error": {...}}`` for a cell whose worker raised; error rows
        are skipped when merging registries, so one bad cell degrades
        exactly one matrix entry instead of aborting the sweep.  Cells
        are laid out benchmark-major.  ``merged=True`` additionally returns the
        cross-cell :func:`merged_registry` as ``(matrix, registry)``.
        """
        variant_list = (list(variants) if variants is not None
                        else variant_names())
        benchmark_list = (list(benchmarks) if benchmarks is not None
                          else list(suite.BENCHMARK_NAMES))
        cells = [(benchmark, variant)
                 for benchmark in benchmark_list
                 for variant in variant_list]
        rows = self.run_cells(cells, instructions=instructions,
                              warmup=warmup, jobs=jobs, cache=cache,
                              outputs=outputs, journal=journal,
                              progress=progress, order_from=order_from,
                              executor=executor)
        matrix: Dict[str, Dict[str, dict]] = {name: {}
                                              for name in benchmark_list}
        for row in rows:
            entry = row["payload"] if row.get("error") is None \
                else {"error": row["error"]}
            matrix[row["benchmark"]][row["variant"]] = entry
        if merged:
            registry = merged_registry(rows)
            if self._last_scheduler is not None:
                self._last_scheduler.register_into(registry)
            return matrix, registry
        return matrix

    def __repr__(self) -> str:
        return (f"Session(config={self.config!r}, "
                f"results={len(self._results)}, "
                f"trace_entries={len(self.trace_cache)})")


# -- worker plumbing -------------------------------------------------------

#: Sessions adopted by worker processes, keyed by their (hashable)
#: RunConfig.  The parent publishes its session here before forking;
#: spawn-start workers populate it lazily from pickled task configs.
_worker_sessions: Dict[RunConfig, Session] = {}


def _session_for_config(config: RunConfig) -> Session:
    """Find or build the session a worker should run a task under."""
    default = _default_session
    if default is not None and default.config == config:
        return default
    session = _worker_sessions.get(config)
    if session is None:
        session = Session(config)
        _worker_sessions[config] = session
    return session


#: Sweep ids this *process* has already announced a worker manifest for.
#: Fork workers inherit the parent's copy, which never contains their
#: sweep's id (the parent records rows, it never computes them), so each
#: worker announces exactly once per sweep.
_announced_sweeps: set = set()


def _run_task(session: Session, context: TaskContext,
              task: Task) -> List[dict]:
    """Run one task inside ``session``; one picklable row per member.

    A single cell runs through :meth:`Session.run`; a fused group runs
    through :meth:`Session._replay_batch`.  ``registry_state`` carries
    each cell's full stat registry in the kind-aware
    :meth:`~repro.telemetry.StatRegistry.to_state` form, so the parent
    can :meth:`~repro.telemetry.StatRegistry.merge` registries from all
    workers (see :func:`merged_registry`).  A raising cell becomes a
    structured error row (``ok=False``, ``payload=None``,
    ``error={type, message, traceback}``) instead of propagating — one
    bad cell must not abort a pool of good ones.

    The task's wall time is split evenly across its members and the
    peak-RSS delta (a process-wide measurement) lands on the first row
    only.  The first task per worker per announced sweep ships the
    worker's own :func:`~repro.observe.manifest.run_manifest` back on
    its first row, and ``REPRO_PROFILE=cprofile`` dumps per-cell pstats
    beside the journal (profiled sweeps never fuse cells).
    """
    config = context.config
    trace_hits_before = session.trace_cache.hits
    result_hits_before = session.result_cache_hits
    rss_before = peak_rss_kb()
    started_at = time.time()
    tick = time.perf_counter()
    profiler = None
    if context.profile == "cprofile" and context.profile_dir:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        if task.fused:
            outcomes = session._replay_batch(
                task.benchmark, [variant for _, variant in task.members],
                config.instructions, config.warmup, context.cache)
        else:
            try:
                result = session.run(task.benchmark, task.members[0][1],
                                     instructions=config.instructions,
                                     warmup=config.warmup,
                                     cache=context.cache,
                                     outputs=context.outputs)
                outcomes = [(result, session.result_cache_hits
                             > result_hits_before, None)]
            except Exception as exc:
                outcomes = [(None, False, exc)]
    finally:
        if profiler is not None:
            profiler.disable()
    wall = time.perf_counter() - tick
    if profiler is not None:
        try:
            profiler.dump_stats(os.path.join(
                context.profile_dir,
                f"cell-{task.members[0][0]:04d}.pstats"))
        except OSError:  # profiling is best-effort forensics
            pass
    rss_after = peak_rss_kb()
    trace_hit = session.trace_cache.hits > trace_hits_before
    manifest = None
    if context.announce and context.sweep_id is not None \
            and context.sweep_id not in _announced_sweeps:
        _announced_sweeps.add(context.sweep_id)
        from repro.observe.manifest import run_manifest
        # manifest the *sweep* config, not session.config: an adopted
        # parent session keeps its own base region lengths, but the
        # sweep runs (and must be audited) under the task config
        manifest = run_manifest(config)
    size = len(task.members)
    rows: List[dict] = []
    for position, ((index, variant), (result, hit, error)) in \
            enumerate(zip(task.members, outcomes)):
        payload = registry_state = None
        if error is None:
            try:
                payload = result.to_dict()
                registry_state = result.build_registry().to_state()
            except Exception as exc:
                payload = registry_state = None
                error = exc
        first = position == 0
        rows.append(cell_row(
            task.benchmark, variant, index,
            started_at=started_at, wall_seconds=wall / size,
            payload=payload, registry_state=registry_state,
            error=error,
            trace_cache_hit=trace_hit and not hit, result_cache_hit=hit,
            peak_rss_kb_delta=(rss_after - rss_before
                               if first and rss_after is not None
                               and rss_before is not None else None),
            batch_size=size if task.fused else None,
            manifest=manifest if first else None))
    return rows


def _run_unit(context: TaskContext, tasks: List[Task]) -> List[List[dict]]:
    """Worker entry for a scheduler dispatch unit (a list of tasks).

    Returns one row list per task so the scheduler can map results back
    to plan positions.  All tasks of a unit share one resolved session —
    units are built benchmark-aligned exactly so this keeps trace-cache
    locality inside a worker dispatch.  Resolving the context's
    ``RunConfig`` through :func:`_session_for_config` gives spawn-start
    workers the exact parent configuration and fork-start workers their
    inherited warm session.
    """
    session = _session_for_config(context.config)
    return [_run_task(session, context, task) for task in tasks]


def merged_registry(rows: Iterable[dict]) -> StatRegistry:
    """Fold every cell's registry into one (counters add, gauges newest).

    This is the multi-region aggregation path ``StatRegistry.merge`` was
    built for: cross-cell event totals (mispredicts, cache hits, DCE
    uops) come out summed, histograms concatenated.  Error rows (a cell
    whose worker raised) carry no registry state and are skipped, so a
    failed cell degrades the aggregate instead of crashing the merge.
    """
    return StatRegistry.from_states(
        row["registry_state"] for row in rows
        if row.get("registry_state") is not None)


# -- default session -------------------------------------------------------

_default_session: Optional[Session] = None

#: The session default_session() created implicitly.  Only *this* session
#: re-resolves its config from the environment on every call; a session
#: installed via :func:`set_default_session` keeps the config it was
#: built with (the caller took explicit control).
_auto_session: Optional[Session] = None


def default_session() -> Session:
    """The process-wide convenience session.

    Unlike explicit sessions, its config *follows the environment*: each
    call re-resolves ``REPRO_*`` (and any ``REPRO_CONFIG`` file) and
    adopts changes in place, so env vars set after import — monkeypatching
    tests, wrapper scripts — actually take effect.
    """
    global _default_session, _auto_session
    if _default_session is None:
        _default_session = _auto_session = Session(current_config())
    elif _default_session is _auto_session:
        config = current_config()
        if _default_session.config != config:
            _default_session.reconfigure(config)
    return _default_session


def set_default_session(session: Optional[Session]) -> Optional[Session]:
    """Swap the default session (returns the previous one).

    An explicitly installed session pins its own config; the env-following
    behavior resumes when the default is reset to None or the original
    auto-created session is restored.
    """
    global _default_session
    previous = _default_session
    _default_session = session
    return previous


def default_jobs() -> int:
    """Worker count for implicit-jobs call sites (explicit args win)."""
    return resolve_jobs(None)
