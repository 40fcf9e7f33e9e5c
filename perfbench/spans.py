"""Span tracing for the benchmark's traced run.

The simulator is not instrumented for the benchmark: :class:`SpanTracer`
wraps, from outside, the public methods of each layer's classes (and the
few module functions a layer calls through a module global), so
``src/repro`` stays untouched and an untraced run pays nothing.

Every wrapped call is a span.  Spans keep a parent stack, so a span's
*self* time is its duration minus the time its child spans cover, and
every span carries the id of the sweep cell it ran under.  Coarse spans
(sweeps, cells, ``CoreModel.run``) are recorded one by one with start
and end; hot spans (a predictor lookup, an emulated uop, a retire hook)
run tens of thousands of times per cell and are aggregated per ``(cell,
parent, name)`` into calls, seconds and self seconds.  Both are held in
memory and written to one JSON file when the run ends.

The layer of a span is the first component of its name (``emulator``,
``uarch``, ``br``, ...); :data:`LAYER_OF` maps the few prefixes that are
not layers themselves.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Span-name prefix -> simulator layer, where the two differ.
LAYER_OF = {"trace_cache": "sim", "bench": "unattributed"}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return LAYER_OF.get(prefix, prefix)


class SpanTracer:
    """In-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        #: Open frames, innermost last: ``[name, span index, child s]``.
        self.stack: List[list] = []
        #: Id of the cell the innermost cell-level span belongs to.
        self.cell = ""
        #: Recorded coarse spans: (name, cell, parent index, start, end,
        #: self seconds); ``None`` while the span is still open.
        self.spans: List[Optional[tuple]] = []
        #: (cell, parent name, name) -> [calls, seconds, self seconds].
        self.totals: Dict[Tuple[str, str, str], list] = {}
        #: Exact work counts taken at span boundaries (uops, lanes, hits).
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        #: Targets that no longer exist in the program (reported, not fatal).
        self.missing: List[str] = []

    # -- span bookkeeping --------------------------------------------------

    def wrap(self, fn: Callable, name: str, record: bool = False,
             cell_of: Optional[Callable] = None,
             count: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``record`` keeps the span individually (coarse spans only);
        ``cell_of(*args, **kwargs)`` names the cell the call starts;
        ``count(counts, args, kwargs, result)`` adds exact work counts
        after a call that returned normally.
        """
        stack = self.stack
        spans = self.spans
        totals = self.totals
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            outer_cell = tracer.cell
            if cell_of is not None:
                tracer.cell = cell_of(*args, **kwargs)
            frame = [name, -1, 0.0]
            if record:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                own = elapsed - frame[2]
                cell = tracer.cell
                if stack:
                    parent = stack[-1]
                    parent[2] += elapsed
                    key = (cell, parent[0], name)
                else:
                    key = (cell, "", name)
                entry = totals.get(key)
                if entry is None:
                    entry = totals[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += own
                if record:
                    parent_index = next((open_frame[1] for open_frame
                                         in reversed(stack)
                                         if open_frame[1] >= 0), -1)
                    spans[frame[1]] = (name, cell, parent_index, start, end,
                                       own)
                tracer.cell = outer_cell
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_iter(self, fn: Callable, name: str,
                  count_key: Optional[str] = None) -> Callable:
        """Wrap a function returning an iterator: every ``next`` is a span.

        Generators consumed lazily by another layer (the emulator's uop
        stream feeding ``CoreModel.run``) do their work inside ``next``,
        so that is where the span must sit.
        """
        tracer = self

        def bump(counts, args, kwargs, result, _key=count_key):
            counts[_key] = counts.get(_key, 0) + 1

        def traced_iter(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            return _TracedIterator(tracer.wrap(
                iterator.__next__, name,
                count=bump if count_key is not None else None))

        traced_iter.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced_iter

    # -- installing wrappers ------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``(module, path, span name, options)`` target."""
        for module_name, path, name, options in targets:
            *owner_path, attribute = path.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                owner = None
            namespace = vars(owner) if owner is not None else {}
            if attribute not in namespace:
                self.missing.append(f"{module_name}.{path}")
                continue
            if options.get("subclasses"):
                for cls in _all_subclasses(owner):
                    if attribute in vars(cls):
                        self._patch_one(cls, attribute, name, options)
                continue
            self._patch_one(owner, attribute, name, options)
        if self.missing:
            print("perfbench: trace targets not found (their metrics read "
                  "0): " + ", ".join(self.missing), file=sys.stderr)

    def _patch_one(self, owner, attribute: str, name: str,
                   options: dict) -> None:
        original = vars(owner)[attribute]
        if options.get("iter"):
            wrapper = self.wrap_iter(original, name,
                                     count_key=options.get("count_key"))
        else:
            wrapper = self.wrap(original, name,
                                record=options.get("record", False),
                                cell_of=options.get("cell_of"),
                                count=options.get("count"))
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- queries -----------------------------------------------------------

    def by_name(self) -> Dict[str, list]:
        """name -> [calls, seconds, self seconds] summed over cells."""
        out: Dict[str, list] = {}
        for (_, _, name), (calls, seconds, own) in self.totals.items():
            entry = out.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += own
        return out

    def write(self, path: str, meta: dict) -> None:
        """Write every span and aggregate to ``path`` as one JSON file."""
        spans = [{"id": index, "name": span[0], "cell": span[1],
                  "parent": span[2], "start": span[3], "end": span[4],
                  "self_s": span[5]}
                 for index, span in enumerate(self.spans) if span is not None]
        totals = [{"cell": cell, "parent": parent, "name": name,
                   "calls": calls, "seconds": seconds, "self_s": own}
                  for (cell, parent, name), (calls, seconds, own)
                  in sorted(self.totals.items())]
        with open(path, "w") as handle:
            json.dump({**meta, "spans": spans, "totals": totals,
                       "counts": self.counts}, handle)


class _TracedIterator:
    """Iterator whose every ``next`` runs inside a span."""

    __slots__ = ("_next",)

    def __init__(self, traced_next: Callable) -> None:
        self._next = traced_next

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        return self._next()


def _all_subclasses(cls) -> List[type]:
    seen: List[type] = [cls]
    for sub in cls.__subclasses__():
        for found in _all_subclasses(sub):
            if found not in seen:
                seen.append(found)
    return seen


# -- what to wrap -----------------------------------------------------------

def _add(counts: dict, key: str, amount: int) -> None:
    counts[key] = counts.get(key, 0) + amount


def _cache_probe(counts, args, kwargs, result) -> None:
    # TraceCache.replay(program, start, total) and branch_columns(...,
    # count=True): a None result is a miss; count=False re-lookups made
    # right after recording are not probes
    counting = args[4] if len(args) > 4 else kwargs.get("count", True)
    if counting:
        _add(counts, "trace_cache.hits" if result is not None
             else "trace_cache.misses", 1)


def _core_uops(counts, args, kwargs, result) -> None:
    # CoreModel.run(stream, warmup=0): stats cover the measured part only
    warmup = args[2] if len(args) > 2 else kwargs.get("warmup", 0)
    consumed = result.instructions if result.warmup_truncated \
        else result.instructions + warmup
    _add(counts, "uarch.uops", consumed)


def _shadow_uops(counts, args, kwargs, result) -> None:
    _add(counts, "emulator.shadow_uops", len(result))


def _batch_lanes(counts, args, kwargs, result) -> None:
    _add(counts, "replay.lanes", len(result))


def _scalar_lane(counts, args, kwargs, result) -> None:
    _add(counts, "replay.lanes", 1)


def _run_cell(session, benchmark, variant, *args, **kwargs) -> str:
    return f"{benchmark}/{variant}"


def _simulate_cell(session, benchmark, cache=True, **kwargs) -> str:
    variant = kwargs.get("br_config") or kwargs.get("predictor")
    return f"{benchmark}/{variant}@{kwargs.get('start_instruction', 0)}"


def _batch_cell(program, predictors, *args, **kwargs) -> str:
    return f"{program.name}/batch"


#: (module, attribute path, span name, options) for every wrapped call.
#: ``cell_of`` marks the calls that start a sweep cell.
TARGETS = [
    # harness: sweep driver, result store, journal
    ("repro.session", "Session.run_cells", "harness.sweep",
     {"record": True}),
    ("repro.sched.store", "ResultStore.put", "harness.store_put", {}),
    ("repro.observe.journal", "SweepRecorder.start", "harness.journal", {}),
    ("repro.observe.journal", "SweepRecorder.record_row",
     "harness.journal", {}),
    ("repro.observe.journal", "SweepRecorder.record_event",
     "harness.journal", {}),
    ("repro.observe.journal", "SweepRecorder.finish", "harness.journal", {}),
    # sim: one span per cell, the simulate driver, predictor replay
    ("repro.session", "Session.run", "sim.cell",
     {"record": True, "cell_of": _run_cell}),
    ("repro.session", "Session.simulate", "sim.cell",
     {"record": True, "cell_of": _simulate_cell}),
    ("repro.session", "simulate", "sim.simulate", {}),
    ("repro.session", "replay_mpki", "sim.replay",
     {"record": True, "count": _scalar_lane}),
    ("repro.session", "replay_mpki_batch", "sim.replay",
     {"record": True, "cell_of": _batch_cell, "count": _batch_lanes}),
    ("repro.sim.trace_cache", "TraceCache.replay", "trace_cache.replay",
     {"count": _cache_probe}),
    ("repro.sim.trace_cache", "TraceCache.branch_columns",
     "trace_cache.columns", {"count": _cache_probe}),
    ("repro.sim.trace_cache", "TraceCache.record", "trace_cache.record",
     {"iter": True}),
    ("repro.sim.trace_cache", "ReplayMachine.stream", "trace_cache.stream",
     {"iter": True}),
    # emulator: live uop stream, fast-forward, wrong-path walks
    ("repro.emulator.machine", "Machine.stream", "emulator.stream",
     {"iter": True, "count_key": "emulator.uops"}),
    ("repro.emulator.machine", "Machine.fast_forward",
     "emulator.fast_forward", {}),
    ("repro.core.runahead", "wrong_path_walk", "emulator.shadow",
     {"count": _shadow_uops}),
    # uarch: the timing core (its self time excludes every layer it calls)
    ("repro.uarch.core", "CoreModel.run", "uarch.run",
     {"record": True, "count": _core_uops}),
    # memsys
    ("repro.memsys.hierarchy", "MemoryHierarchy.access_data",
     "memsys.access_data", {}),
    ("repro.memsys.hierarchy", "MemoryHierarchy.access_insn",
     "memsys.access_insn", {}),
    # predictors: every concrete predictor's CBP methods + batch kernels
    ("repro.predictors.base", "BranchPredictor.predict",
     "predictors.predict", {"subclasses": True}),
    ("repro.predictors.base", "BranchPredictor.update",
     "predictors.update", {"subclasses": True}),
    ("repro.predictors.base", "BranchPredictor.observe",
     "predictors.observe", {"subclasses": True}),
    ("repro.sim.predictor_replay", "replay_lanes", "predictors.batch", {}),
    # br: Branch Runahead hooks and its training structures
    ("repro.core.runahead", "BranchRunahead.on_retire", "br.on_retire", {}),
    ("repro.core.runahead", "BranchRunahead.fetch_prediction",
     "br.fetch_prediction", {}),
    ("repro.core.runahead", "BranchRunahead.on_branch_resolved",
     "br.on_branch_resolved", {}),
    ("repro.core.hbt", "HardBranchTable.on_branch_retired", "br.hbt", {}),
    ("repro.core.ceb", "ChainExtractionBuffer.on_retire", "br.ceb", {}),
    ("repro.core.ceb", "ChainExtractionBuffer.extract", "br.extract", {}),
    ("repro.core.merge_point", "MergePointPredictor.on_retire",
     "br.merge_point", {}),
    ("repro.core.merge_point", "MergePointPredictor.train_on_mispredict",
     "br.merge_point", {}),
    ("repro.core.dce", "DependenceChainEngine.trigger", "br.dce", {}),
    ("repro.core.dce", "DependenceChainEngine.initiate_chain", "br.dce", {}),
    ("repro.core.dce", "DependenceChainEngine.on_queue_slot_freed",
     "br.dce", {}),
    ("repro.core.dce", "DependenceChainEngine.sync", "br.dce", {}),
]
