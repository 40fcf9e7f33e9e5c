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

Worker processes: each parallel task pickles the parent's ``RunConfig``;
the worker resolves it to a session via :func:`_session_for_config`, so a
spawn-start worker reconstructs the *exact* parent configuration instead
of re-deriving one from inherited environment variables, while a
fork-start worker reuses the inherited warm session (trace cache
included) when the config matches.
"""

from __future__ import annotations

import os
import time
import traceback as _traceback
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
    describe_mismatch,
    order_plan,
)
from repro.sim.predictor_replay import replay_mpki, replay_mpki_batch
from repro.sim.results import SimulationResult
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.sim.variants import (
    is_predictor_only,
    variant_kwargs,
    variant_names,
)
from repro.telemetry import StatRegistry
from repro.workloads import suite

#: Set to ``0``/``off``/``no``/``false`` to disable collapsing groups of
#: predictor-only MPKI cells into one batched replay per benchmark.
BATCH_REPLAY_ENV = "REPRO_BATCH_REPLAY"


def batch_replay_enabled() -> bool:
    value = (os.environ.get(BATCH_REPLAY_ENV) or "1").strip().lower()
    return value not in ("0", "off", "no", "false")


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
        mpki_only = outputs == "mpki" and is_predictor_only(variant) \
            and not br_overrides
        override_key = tuple(sorted(br_overrides.items())) if br_overrides \
            else ()
        key = (benchmark, variant, instructions, warmup, override_key,
               "mpki" if mpki_only else "full")
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
        if mpki_only:
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
        ``tracer`` must observe a live run).
        """
        name = benchmark if isinstance(benchmark, str) else \
            getattr(benchmark, "name", None)
        program = suite.load(benchmark) if isinstance(benchmark, str) \
            else benchmark
        if kwargs.get("instructions") is None:
            kwargs["instructions"] = self.config.instructions
        if kwargs.get("warmup") is None:
            kwargs["warmup"] = self.config.warmup
        key = None
        if cache and name is not None and all(
                isinstance(value, (str, int, float, bool, type(None)))
                for value in kwargs.values()):
            key = (name, "simulate", tuple(sorted(kwargs.items())))
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
        order.  Cached cells are served from the result cache under the
        *same* keys the scalar path uses; the misses replay together via
        :func:`~repro.sim.predictor_replay.replay_mpki_batch` and are
        cached individually, so a later scalar ``run(...,
        outputs="mpki")`` of any member hits.  Raises ``ValueError`` for
        a variant that is not predictor-only — batched replay cannot
        model Branch Runahead timing.
        """
        instructions = instructions or self.config.instructions
        warmup = warmup if warmup is not None else self.config.warmup
        for variant in variants:
            if not is_predictor_only(variant):
                raise ValueError(
                    f"variant {variant!r} is not predictor-only; "
                    f"batched MPKI replay cannot model it")
        keys = [(benchmark, variant, instructions, warmup, (), "mpki")
                for variant in variants]
        out: List[Optional[Tuple[object, bool]]] = [None] * len(variants)
        misses: List[int] = []
        for position, key in enumerate(keys):
            cached = self._cache_get(key) if cache else None
            if cached is not None:
                out[position] = (cached, True)
            else:
                misses.append(position)
        if misses:
            program = suite.load(benchmark)
            lanes = [make_predictor(
                         variant_kwargs(variants[position])["predictor"])
                     for position in misses]
            results = replay_mpki_batch(program, lanes,
                                        instructions=instructions,
                                        warmup=warmup,
                                        trace_cache=self.trace_cache,
                                        min_lanes=self.config.batch_min_lanes)
            for position, result in zip(misses, results):
                if cache:
                    self._cache_put(keys[position], result)
                out[position] = (result, False)
        return out  # type: ignore[return-value]

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
        result-cache keys.  Set ``REPRO_BATCH_REPLAY=0`` to force the
        scalar per-cell path; per-cell profiling (``REPRO_PROFILE``)
        disables batching automatically since a fused group's cells
        cannot be attributed individually.
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
        meta = {
            "sweep_id": recorder.sweep_id if recorder else None,
            # worker manifests are only worth a git subprocess when a
            # journal will actually record them
            "announce": journal is not None,
            "profile": recorder.profile if recorder else None,
            "profile_dir": recorder.profile_dir if recorder else None,
        }
        plan = list(enumerate(cells))
        mismatch = None
        if order_from is not None:
            plan, mismatch = order_plan(plan, order_from)
            if mismatch is not None:
                _warnings.warn(
                    SweepPlanMismatchWarning(describe_mismatch(mismatch)),
                    stacklevel=2)
        batching = (outputs == "mpki" and len(cells) > 1
                    and profile_mode is None and batch_replay_enabled())
        groups: Dict[str, List[Tuple[str, int]]] = {}
        if batching:
            for index, (benchmark, variant) in plan:
                if is_predictor_only(variant):
                    groups.setdefault(benchmark, []).append(
                        (variant, index))
            groups = {benchmark: members
                      for benchmark, members in groups.items()
                      if len(members) >= 2}
        tasks: List[Tuple] = []
        emitted: set = set()
        for index, (benchmark, variant) in plan:
            members = groups.get(benchmark)
            if members is None or not is_predictor_only(variant):
                tasks.append((task_config, benchmark, variant,
                              instructions, warmup, cache, outputs,
                              {**meta, "index": index}))
            elif benchmark not in emitted:
                # the whole group runs at the position of its first
                # member; rows are re-sorted to input order at the end
                emitted.add(benchmark)
                tasks.append((task_config, benchmark, tuple(members),
                              instructions, warmup, cache, outputs,
                              {**meta, "index": members[0][1]}))
        scheduler = SweepScheduler(
            tasks, task_config, _run_unit,
            inline_fn=lambda unit: [_run_task_in(self, task)
                                    for task in unit],
            jobs=jobs, executor=executor,
            start_method=start_method, recorder=recorder,
            store=self.result_store if cache else None,
            outputs=outputs, mismatch=mismatch)
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


def _peak_rss_kb() -> Optional[int]:
    """Local peak-RSS probe (duplicated from repro.observe.manifest: this
    module must stay importable without triggering the observe package,
    which imports Session back)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    import sys
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - bytes on macOS
        peak //= 1024
    return int(peak)


#: Sweep ids this *process* has already announced a worker manifest for.
#: Fork workers inherit the parent's copy, which never contains their
#: sweep's id (the parent records rows, it never computes them), so each
#: worker announces exactly once per sweep.
_announced_sweeps: set = set()


def _run_cell_in(session: Session, task: Tuple) -> dict:
    """Run one cell inside ``session`` and flatten it to a picklable dict.

    ``registry_state`` carries the cell's full stat registry in the
    kind-aware :meth:`~repro.telemetry.StatRegistry.to_state` form, so the
    parent can :meth:`~repro.telemetry.StatRegistry.merge` registries from
    all workers (see :func:`merged_registry`).  A raising cell is
    converted into a structured error row (``ok=False``, ``payload=None``,
    ``error={type, message, traceback}``) instead of propagating — one
    bad cell must not abort a pool of good ones.

    The optional eighth task element is flight-recorder metadata
    (``index``, ``sweep_id``, ``announce``, ``profile``/``profile_dir``):
    cells measure their own wall seconds and peak-RSS delta, the first
    cell per worker per sweep ships the worker's own
    :func:`~repro.observe.manifest.run_manifest` back on the row, and
    ``REPRO_PROFILE=cprofile`` dumps per-cell pstats beside the journal.
    """
    (_, benchmark, variant, instructions, warmup, use_result_cache,
     outputs) = task[:7]
    meta = task[7] if len(task) > 7 else {}
    trace_cache = session.trace_cache
    hits_before = trace_cache.hits
    result_hits_before = session.result_cache_hits
    rss_before = _peak_rss_kb()
    started_at = time.time()
    tick = time.perf_counter()
    profiler = None
    if meta.get("profile") == "cprofile" and meta.get("profile_dir"):
        import cProfile
        profiler = cProfile.Profile()
    payload = registry_state = error = None
    try:
        if profiler is not None:
            profiler.enable()
        try:
            result = session.run(benchmark, variant,
                                 instructions=instructions,
                                 warmup=warmup, cache=use_result_cache,
                                 outputs=outputs)
        finally:
            if profiler is not None:
                profiler.disable()
        payload = result.to_dict()
        registry_state = result.build_registry().to_state()
    except Exception as exc:
        error = {"type": type(exc).__name__, "message": str(exc),
                 "traceback": _traceback.format_exc()}
    wall = time.perf_counter() - tick
    if profiler is not None:
        try:
            profiler.dump_stats(os.path.join(
                meta["profile_dir"],
                f"cell-{meta.get('index', 0):04d}.pstats"))
        except OSError:  # profiling is best-effort forensics
            pass
    rss_after = _peak_rss_kb()
    worker: dict = {"pid": os.getpid(), "manifest": None}
    sweep_id = meta.get("sweep_id")
    if meta.get("announce") and sweep_id is not None \
            and sweep_id not in _announced_sweeps:
        _announced_sweeps.add(sweep_id)
        from repro.observe.manifest import run_manifest
        # manifest the *task* config, not session.config: an adopted
        # parent session keeps its own base region lengths, but the
        # sweep runs (and must be audited) under the task's config
        worker["manifest"] = run_manifest(task[0])
    return {
        "benchmark": benchmark,
        "variant": variant,
        "index": meta.get("index"),
        "ok": error is None,
        "error": error,
        "payload": payload,
        "registry_state": registry_state,
        "trace_cache_hit": trace_cache.hits > hits_before,
        "result_cache_hit":
            session.result_cache_hits > result_hits_before,
        "cell": {
            "started_at": round(started_at, 6),
            "wall_seconds": round(wall, 6),
            "peak_rss_kb_delta": (rss_after - rss_before
                                  if rss_after is not None
                                  and rss_before is not None else None),
        },
        "worker": worker,
    }


def _run_batch_in(session: Session, task: Tuple) -> List[dict]:
    """Run one batched group of predictor-only MPKI cells; one row each.

    The task's variant slot holds ``((variant, index), ...)`` instead of
    a single variant string.  Cached members are served under their
    scalar result-cache keys; the misses replay together through
    :func:`~repro.sim.predictor_replay.replay_mpki_batch` and are cached
    individually.  Row shape mirrors :func:`_run_cell_in` member for
    member — the batch's wall time is attributed evenly across members
    (``cell.batch_size`` marks the fusion), the peak-RSS delta lands on
    the first row only (it is a process-wide measurement), and a member
    whose variant fails to resolve errors alone while a failure of the
    shared replay errors every non-cached member.
    """
    (_, benchmark, members, instructions, warmup, use_result_cache,
     outputs) = task[:7]
    meta = task[7] if len(task) > 7 else {}
    trace_cache = session.trace_cache
    hits_before = trace_cache.hits
    rss_before = _peak_rss_kb()
    started_at = time.time()
    tick = time.perf_counter()

    def structured(exc: Exception) -> dict:
        return {"type": type(exc).__name__, "message": str(exc),
                "traceback": _traceback.format_exc()}

    cached: Dict[int, object] = {}
    computed: Dict[int, object] = {}
    errors: Dict[int, dict] = {}
    lanes: List[Tuple[int, Tuple, object]] = []
    for variant, index in members:
        key = (benchmark, variant, instructions, warmup, (), "mpki")
        if use_result_cache:
            hit = session._cache_get(key)
            if hit is not None:
                cached[index] = hit
                continue
        try:
            lanes.append((index, key, make_predictor(
                variant_kwargs(variant)["predictor"])))
        except Exception as exc:
            errors[index] = structured(exc)
    if lanes:
        try:
            program = suite.load(benchmark)
            results = replay_mpki_batch(
                program, [predictor for _, _, predictor in lanes],
                instructions=instructions, warmup=warmup,
                trace_cache=trace_cache,
                min_lanes=session.config.batch_min_lanes)
        except Exception as exc:
            error = structured(exc)
            for index, _, _ in lanes:
                errors[index] = error
        else:
            for (index, key, _), result in zip(lanes, results):
                computed[index] = result
                if use_result_cache:
                    session._cache_put(key, result)
    wall = time.perf_counter() - tick
    rss_after = _peak_rss_kb()
    rss_delta = (rss_after - rss_before if rss_after is not None
                 and rss_before is not None else None)
    share = round(wall / max(1, len(members)), 6)
    group_hit = trace_cache.hits > hits_before
    sweep_id = meta.get("sweep_id")
    announce = (meta.get("announce") and sweep_id is not None
                and sweep_id not in _announced_sweeps)
    if announce:
        _announced_sweeps.add(sweep_id)
    rows: List[dict] = []
    for position, (variant, index) in enumerate(members):
        error = errors.get(index)
        result = cached.get(index) if index in cached \
            else computed.get(index)
        payload = registry_state = None
        if error is None and result is not None:
            payload = result.to_dict()
            registry_state = result.build_registry().to_state()
        worker: dict = {"pid": os.getpid(), "manifest": None}
        if announce and position == 0:
            from repro.observe.manifest import run_manifest
            worker["manifest"] = run_manifest(task[0])
        rows.append({
            "benchmark": benchmark,
            "variant": variant,
            "index": index,
            "ok": error is None,
            "error": error,
            "payload": payload,
            "registry_state": registry_state,
            "trace_cache_hit": group_hit and index not in cached,
            "result_cache_hit": index in cached,
            "cell": {
                "started_at": round(started_at, 6),
                "wall_seconds": share,
                "peak_rss_kb_delta": rss_delta if position == 0 else None,
                "batch_size": len(members),
            },
            "worker": worker,
        })
    return rows


def _run_task_in(session: Session, task: Tuple) -> List[dict]:
    """Run one task — a single cell or a batched group — as row dicts."""
    if isinstance(task[2], tuple):
        return _run_batch_in(session, task)
    return [_run_cell_in(session, task)]


def _run_unit(unit: List[Tuple]) -> List[List[dict]]:
    """Worker entry for a scheduler dispatch unit (a list of tasks).

    Returns one row list per task so the scheduler can map results back
    to plan positions.  All tasks of a unit share one resolved session —
    units are built benchmark-aligned exactly so this keeps trace-cache
    locality inside a worker dispatch.  The unit's first task carries
    the parent's ``RunConfig``; resolving it through
    :func:`_session_for_config` gives spawn-start workers the exact
    parent configuration and fork-start workers their inherited warm
    session.
    """
    session = _session_for_config(unit[0][0])
    return [_run_task_in(session, task) for task in unit]


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
