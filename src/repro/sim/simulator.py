"""Top-level simulation driver.

``simulate()`` wires a workload program to the functional emulator, the
out-of-order core, the memory hierarchy, the baseline predictor, and
(optionally) Branch Runahead, runs a region, and returns a
:class:`~repro.sim.results.SimulationResult`.

Observability: every run owns a :class:`~repro.telemetry.Telemetry`
bundle.  Its registry is populated lazily at export time (the hot path
never touches it); its tracer — :data:`~repro.telemetry.NULL_TRACER`
unless the caller passes a real one — feeds the pipeline event trace; its
phase timers record where *host* wall-clock time goes (setup, functional
emulation, timing model, DCE cascades), the baseline future perf PRs
measure against.
"""

from __future__ import annotations

from typing import Callable, Optional, Union

from repro.core.config import UARCH_CONFIGS, BranchRunaheadConfig
from repro.core.runahead import BranchRunahead
from repro.emulator.machine import Machine
from repro.isa.program import Program
from repro.memsys.hierarchy import HierarchyConfig, MemoryHierarchy
from repro.predictors.base import BranchPredictor
from repro.predictors.registry import make_predictor
from repro.sim.results import SimulationResult
from repro.sim.trace_cache import TraceCache
from repro.telemetry import Telemetry, Tracer
from repro.uarch.config import CoreConfig
from repro.uarch.core import CoreModel


class PredictionRecorder:
    """Runs the baseline predictor and keeps every prediction it makes.

    A plain object with the one method the core calls, so host profiles
    that wrap ``BranchPredictor`` methods still count the real work.
    """

    __slots__ = ("_observe", "column")

    def __init__(self, predictor: BranchPredictor):
        self._observe = predictor.observe
        self.column: list = []

    def observe(self, pc: int, taken: bool) -> bool:
        prediction = self._observe(pc, taken)
        self.column.append(prediction)
        return prediction


class ColumnReader:
    """Serves a recorded prediction column in branch order."""

    __slots__ = ("_next",)

    def __init__(self, column: list):
        self._next = iter(column).__next__

    def observe(self, pc: int, taken: bool) -> bool:
        return self._next()


def simulate(program: Program,
             instructions: int = 40_000,
             warmup: int = 10_000,
             start_instruction: int = 0,
             predictor: Optional[Union[BranchPredictor, str]] = None,
             predictor_factory: Optional[Callable[[], BranchPredictor]] = None,
             br_config: Optional[Union[BranchRunaheadConfig, str]] = None,
             core_config: Optional[CoreConfig] = None,
             hierarchy_config: Optional[HierarchyConfig] = None,
             track_merge_oracle: bool = False,
             telemetry: Optional[Telemetry] = None,
             tracer: Optional[Tracer] = None,
             trace_cache: Optional[TraceCache] = None) -> SimulationResult:
    """Run one region of ``program`` and collect every statistic.

    ``warmup`` instructions run first with full training but are excluded
    from reported counts.  ``start_instruction`` fast-forwards the program
    functionally before timing begins (SimPoint-style region simulation).
    Passing ``br_config`` attaches Branch Runahead; ``predictor`` defaults
    to a fresh 64KB TAGE-SC-L.  Both accept registry names as well as
    instances — ``predictor="mtage"`` and ``br_config="mini"`` resolve
    through the component registries (with near-miss suggestions on a
    typo) and construct a fresh component.  Pass ``tracer`` (or a full ``telemetry``
    bundle) to capture pipeline events; with neither, tracing is fully
    disabled — each component checks the no-op sink once at construction
    and emits nothing on the hot path.

    ``trace_cache`` memoizes the committed dynamic-uop stream: the first
    run of a ``(program, start, length)`` region records it (fast-forward
    included), subsequent runs replay it without re-emulating.  Replays are
    bit-identical to live runs (see :mod:`repro.sim.trace_cache`).  A
    predictor given by registry name (or the default ``"tage64"``) also
    runs only once per region: its first complete run stores the
    prediction column on the cached region, and later runs read it (their
    result's ``predictor`` is then a fresh, untrained instance that only
    names the predictor and its storage).  Predictor instances and
    ``predictor_factory`` always run live.
    """
    if telemetry is None:
        telemetry = Telemetry(tracer=tracer)
    elif tracer is not None:
        telemetry.tracer = tracer
    timers = telemetry.timers

    if predictor is None and predictor_factory is None:
        predictor = "tage64"
    predictor_name = predictor if isinstance(predictor, str) else None
    if predictor_name is not None:
        predictor = make_predictor(predictor_name)
    elif predictor is None:
        predictor = predictor_factory()
    if isinstance(br_config, str):
        br_config = UARCH_CONFIGS.get(br_config)()
    total = instructions + warmup
    machine = None
    if trace_cache is not None:
        machine = trace_cache.replay(program, start_instruction, total)
    replaying = machine is not None
    baseline = predictor
    recorder = None
    if trace_cache is not None and predictor_name is not None:
        column = trace_cache.prediction_column(machine, predictor_name)
        if column is not None:
            baseline = ColumnReader(column)
        else:
            baseline = recorder = PredictionRecorder(predictor)
    with timers.phase("setup"):
        if machine is None:
            machine = Machine(program)
        hierarchy = MemoryHierarchy(hierarchy_config,
                                    tracer=telemetry.tracer)
        core_config = core_config or CoreConfig()
        core = CoreModel(config=core_config, hierarchy=hierarchy,
                         predictor=baseline, tracer=telemetry.tracer)
        runahead = None
        if br_config is not None:
            runahead = BranchRunahead(
                br_config, program, machine.memory, hierarchy,
                core.dcache_ports,
                core_alus=core.alus if br_config.share_core_alus else None,
                retire_width=core_config.retire_width,
                track_merge_oracle=track_merge_oracle,
                tracer=telemetry.tracer)
            core.runahead = runahead

    if start_instruction and not replaying:
        with timers.phase("fast_forward"):
            machine.fast_forward(start_instruction)

    stream_source = machine.stream(total)
    if trace_cache is not None and not replaying:
        # snapshot happens here, after the fast-forward: the recorded
        # region replays from its entry state
        stream_source = trace_cache.record(machine, start_instruction,
                                           total, stream_source)
    # with no runahead attached nothing reads machine state mid-stream, so
    # the emulation timer may drive the producer in C-level chunks
    stream = timers.wrap_iter("emulation", stream_source,
                              buffer=0 if runahead is not None else 64)
    with timers.phase("timing"):
        core_stats = core.run(stream, warmup=warmup,
                              initial_regs=machine.regs if start_instruction
                              else None)
    if recorder is not None and not core_stats.warmup_truncated:
        trace_cache.store_prediction_column(
            program, start_instruction, total, predictor_name,
            recorder.column)
    # the DCE self-times its cascades; surface it as a first-class phase
    # (a subset of "timing", which also contains "emulation")
    if runahead is not None:
        timers.add("dce", runahead.dce.host_seconds)

    return SimulationResult(
        program_name=program.name,
        core=core_stats,
        hierarchy=hierarchy,
        predictor=predictor,
        runahead=runahead,
        telemetry=telemetry,
        trace_cache=trace_cache,
    )
