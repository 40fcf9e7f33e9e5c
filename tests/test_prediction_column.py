"""Tests for the per-region baseline prediction column.

The baseline predictor is looked up and trained on every committed
conditional branch whatever is attached to the core — Branch Runahead
only overrides it at fetch — so ``simulate()`` records its predictions
once per (region, predictor name) on the trace-cache entry and later runs
of the region read them back.  The invariant pinned here: a run that
reads a column produces the same host-stripped payload as a run with no
trace cache at all, and only complete runs of registry-named predictors
ever store a column.
"""

import json

import pytest

from repro.config import RunConfig
from repro.isa.program import ProgramBuilder
from repro.predictors.registry import make_predictor
from repro.predictors.tage_scl import tage_scl_64kb
from repro.session import Session
from repro.sim.simulator import simulate
from repro.sim.trace_cache import TraceCache
from repro.sim.variants import variant_kwargs
from repro.uarch.core import CoreModel
from repro.workloads import suite

REGION = dict(instructions=1_500, warmup=700)
TOTAL = REGION["instructions"] + REGION["warmup"]


def stripped(result):
    payload = json.loads(result.to_json())
    payload["stats"].pop("host", None)
    return payload


def entry_for(cache, program):
    entry = cache.lookup(program, 0, TOTAL, count=False)
    assert entry is not None
    return entry


def short_program():
    """Six loop iterations, then HALT: far shorter than any warmup here."""
    b = ProgramBuilder(name="short-loop")
    (i,) = b.regs("i")
    b.movi(i, 0)
    b.label("top")
    b.addi(i, i, 1)
    b.cmpi(i, 6)
    b.br("lt", "top")
    b.halt()
    return b.build()


class TestColumnReadMatchesLiveRun:
    @pytest.mark.parametrize("name", ["sjeng_06", "mcf_17", "leela_17"])
    @pytest.mark.parametrize("variant", ["tage64", "core_only", "mini",
                                         "big", "mini-oracle-merge",
                                         "spec:gshare+mini"])
    def test_warm_column_equals_uncached_run(self, name, variant):
        program = suite.load(name)
        fresh = stripped(simulate(program, trace_cache=None, **REGION,
                                  **variant_kwargs(variant)))
        cache = TraceCache()
        predictor = variant_kwargs(variant)["predictor"]
        simulate(program, predictor=predictor, trace_cache=cache, **REGION)
        assert predictor in entry_for(cache, program).predictions
        warm = simulate(program, trace_cache=cache, **REGION,
                        **variant_kwargs(variant))
        assert (cache.column_hits, cache.column_misses) == (1, 1)
        assert stripped(warm) == fresh


class TestWhatIsStored:
    def test_each_predictor_name_gets_its_own_column(self):
        program = suite.load("mcf_17")
        cache = TraceCache()
        for name in ("tage64", "tage80"):
            simulate(program, predictor=name, trace_cache=cache, **REGION)
        predictions = entry_for(cache, program).predictions
        assert sorted(predictions) == ["tage64", "tage80"]
        events = cache.branch_columns(program, 0, TOTAL,
                                      count=False).events()
        for name, column in predictions.items():
            predictor = make_predictor(name)
            assert column == [predictor.observe(pc, taken)
                              for _, pc, taken in events]
        assert predictions["tage64"] != predictions["tage80"]

    def test_default_predictor_is_the_tage64_column(self):
        program = suite.load("sjeng_06")
        cache = TraceCache()
        simulate(program, trace_cache=cache, **REGION)
        simulate(program, predictor="tage64", trace_cache=cache, **REGION)
        assert list(entry_for(cache, program).predictions) == ["tage64"]
        assert (cache.column_hits, cache.column_misses) == (1, 1)

    @pytest.mark.parametrize("make_kwargs", [
        lambda: dict(predictor=tage_scl_64kb()),
        lambda: dict(predictor_factory=tage_scl_64kb),
    ], ids=["instance", "factory"])
    def test_caller_built_predictors_store_nothing(self, make_kwargs):
        program = suite.load("sjeng_06")
        cache = TraceCache()
        for _ in range(2):
            simulate(program, trace_cache=cache, **REGION, **make_kwargs())
        assert entry_for(cache, program).predictions == {}
        assert (cache.column_hits, cache.column_misses) == (0, 0)

    def test_abandoned_stream_stores_nothing(self, monkeypatch):
        program = suite.load("sjeng_06")
        cache = TraceCache()
        simulate(program, predictor=tage_scl_64kb(), trace_cache=cache,
                 **REGION)  # records the region, stores no column
        real = CoreModel._process_branch
        calls = []

        def failing(self, record):
            calls.append(record.seq)
            if len(calls) == 50:
                raise RuntimeError("abandon the stream")
            return real(self, record)

        monkeypatch.setattr(CoreModel, "_process_branch", failing)
        with pytest.raises(RuntimeError):
            simulate(program, predictor="tage64", trace_cache=cache,
                     **REGION)
        assert entry_for(cache, program).predictions == {}
        monkeypatch.setattr(CoreModel, "_process_branch", real)
        simulate(program, predictor="tage64", trace_cache=cache, **REGION)
        assert list(entry_for(cache, program).predictions) == ["tage64"]

    def test_truncated_warmup_stores_nothing(self):
        program = short_program()
        cache = TraceCache()
        result = simulate(program, instructions=100, warmup=1_000,
                          trace_cache=cache)
        assert result.core.warmup_truncated
        entry = cache.lookup(program, 0, 1_100, count=False)
        assert entry is not None and entry.predictions == {}


class TestCacheAccounting:
    def test_sweep_counters_match_one_emulation_per_region(self):
        """Probe counts are those of a cache without columns; the column
        counters show each later variant reading the first one's column."""
        session = Session(RunConfig(**REGION))
        variants = ("tage64", "core_only", "mini", "big")
        rows = session.run_cells([("sjeng_06", v) for v in variants],
                                 jobs=1)
        host = [row["payload"]["stats"]["host"]["trace_cache"]
                for row in rows]
        assert [row["trace_cache_hit"] for row in rows] == \
            [False, True, True, True]
        assert [h["hits"] for h in host] == [0, 1, 2, 3]
        assert [h["misses"] for h in host] == [1, 1, 1, 1]
        assert [h["column_hits"] for h in host] == [0, 1, 2, 3]
        assert [h["column_misses"] for h in host] == [1, 1, 1, 1]
        assert [h["prediction_columns"] for h in host] == [1, 1, 1, 1]
