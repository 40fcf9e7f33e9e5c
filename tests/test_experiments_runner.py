"""Tests for the parallel experiment runner and the bench harness."""

import json

import pytest

from repro.sim import bench, experiments


REGION = dict(instructions=1_200, warmup=600)


def strip(payload):
    clean = json.loads(json.dumps(payload))
    clean.get("stats", {}).pop("host", None)
    return clean


@pytest.fixture(autouse=True)
def fresh_caches():
    experiments.clear_caches()
    yield
    experiments.clear_caches()


class TestRunCells:
    CELLS = [("sjeng_06", "tage64"), ("sjeng_06", "mini"),
             ("mcf_17", "tage64"), ("mcf_17", "mini")]

    def test_serial_preserves_cell_order(self):
        rows = experiments.run_cells(self.CELLS, jobs=1, **REGION)
        assert [(r["benchmark"], r["variant"]) for r in rows] == self.CELLS

    def test_trace_cache_hits_within_benchmark(self):
        rows = experiments.run_cells(self.CELLS, jobs=1, **REGION)
        # first variant of each benchmark records, the second replays
        assert [r["trace_cache_hit"] for r in rows] == \
            [False, True, False, True]

    def test_parallel_equals_serial(self):
        serial = experiments.run_cells(self.CELLS, jobs=1, **REGION)
        experiments.clear_caches()
        parallel = experiments.run_cells(self.CELLS, jobs=2, **REGION)
        assert [(r["benchmark"], r["variant"]) for r in parallel] == \
            self.CELLS
        for left, right in zip(serial, parallel):
            assert strip(left["payload"]) == strip(right["payload"])

    def test_run_matrix_shape(self):
        matrix = experiments.run_matrix(variants=["tage64", "mini"],
                                        benchmarks=["sjeng_06"], jobs=1,
                                        **REGION)
        assert list(matrix) == ["sjeng_06"]
        assert sorted(matrix["sjeng_06"]) == ["mini", "tage64"]
        payload = matrix["sjeng_06"]["mini"]
        assert payload["branch_runahead"] is True
        assert payload["benchmark"] == "sjeng_06"


class TestSpecVariants:
    def test_token_round_trip(self):
        token = experiments.spec_variant("tage80", "mini")
        assert token == "spec:tage80+mini"
        kwargs = experiments.variant_kwargs(token)
        assert kwargs["predictor"].name
        assert kwargs["br_config"] is not None

    def test_baseline_token_has_no_config(self):
        kwargs = experiments.variant_kwargs(
            experiments.spec_variant("mtage"))
        assert "br_config" not in kwargs

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            experiments.spec_variant("nosuch")
        with pytest.raises(KeyError):
            experiments.spec_variant("tage64", "nosuch")

    def test_spec_run_matches_named_variant(self):
        named = experiments.run("sjeng_06", "mini", **REGION)
        spec = experiments.run("sjeng_06",
                               experiments.spec_variant("tage64", "mini"),
                               **REGION)
        assert strip(named.to_dict()) == strip(spec.to_dict())


class TestResultCacheLru:
    def test_cache_is_bounded(self, monkeypatch):
        # the bound is read from the environment at call time, not import
        monkeypatch.setenv("REPRO_CACHE_SIZE", "2")
        for variant in ("tage64", "tage80", "mtage", "core_only"):
            experiments.run("sjeng_06", variant, **REGION)
        assert len(experiments._cache) == 2

    def test_eviction_is_lru_ordered(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_SIZE", "2")
        first = experiments.run("sjeng_06", "tage64", **REGION)
        experiments.run("sjeng_06", "tage80", **REGION)
        # touch tage64 so tage80 is now the least recently used
        assert experiments.run("sjeng_06", "tage64", **REGION) is first
        experiments.run("sjeng_06", "mtage", **REGION)
        keys = [key[1] for key in experiments._cache]
        assert "tage64" in keys and "tage80" not in keys

    def test_cache_false_bypasses_storage(self):
        result = experiments.run("sjeng_06", "tage64", cache=False,
                                 **REGION)
        assert len(experiments._cache) == 0
        again = experiments.run("sjeng_06", "tage64", cache=False,
                                **REGION)
        assert again is not result
        assert strip(again.to_dict()) == strip(result.to_dict())


class TestBenchHarness:
    def test_payload_digest_ignores_host_timings(self):
        first = experiments.run("sjeng_06", "tage64", cache=False,
                                **REGION).to_dict()
        experiments.clear_caches()
        second = experiments.run("sjeng_06", "tage64", cache=False,
                                 **REGION).to_dict()
        assert first["stats"]["host"] != second["stats"]["host"]
        assert bench.payload_digest(first) == bench.payload_digest(second)

    def test_run_bench_report_schema_and_drift(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64", "mini"], jobs=1,
                              **REGION)
        assert report["schema"] == bench.SCHEMA
        assert report["cells"] == 2
        assert report["drift"] == {"ok": True, "mismatched_cells": []}
        assert report["optimized"]["trace_cache_hits"] == 1
        assert set(report["digests"]) == \
            {"sjeng_06/tage64", "sjeng_06/mini"}
        assert report["baseline"]["wall_seconds"] > 0
        assert report["optimized"]["uops_per_second"] > 0
        assert "timing" in report["baseline"]["host_phase_seconds"]

    def test_quick_matrix_defaults(self, bench_report):
        report = bench_report(quick=True, instructions=800, warmup=400,
                              jobs=1)
        assert report["quick"] is True
        assert report["benchmarks"] == bench.QUICK_BENCHMARKS
        assert report["variants"] == bench.QUICK_VARIANTS
        assert report["drift"]["ok"]

    def test_format_report_mentions_drift(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64"], jobs=1, **REGION)
        text = bench.format_report(report)
        assert "speedup" in text and "drift" in text
        report["drift"] = {"ok": False, "mismatched_cells": ["x/y"]}
        assert "MISMATCH" in bench.format_report(report)


class TestBenchV2:
    def test_mpki_replay_pass_reported(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64", "mini"], jobs=1,
                              **REGION)
        replay = report["mpki_replay"]
        assert replay["cells"] == 1  # only tage64 is predictor-only
        assert replay["wall_seconds"] > 0
        assert replay["speedup"] > 0
        assert report["drift"]["ok"]  # includes the exact-MPKI gate
        assert "mpki-only" in bench.format_report(report)

    def test_no_predictor_only_cells_skips_replay_pass(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["mini"], jobs=1, **REGION)
        assert report["mpki_replay"] is None
        assert "mpki-only" not in bench.format_report(report)

    def test_hit_rate_on_summary_line(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64", "mini"], jobs=1,
                              **REGION)
        assert report["optimized"]["trace_cache_hit_rate"] == 0.5
        first_line = bench.format_report(report).splitlines()[0]
        assert "trace-cache hit rate 50%" in first_line

    def test_resolve_jobs_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        assert bench.resolve_jobs(None) == 4
        assert bench.resolve_jobs(2) == 2  # explicit beats the env var
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert bench.resolve_jobs(None) == 1
        monkeypatch.delenv("REPRO_JOBS")
        assert bench.resolve_jobs(None) == 1

    def test_quick_honours_repro_jobs_serial(self, monkeypatch,
                                             shared_bench_passes):
        monkeypatch.setenv("REPRO_JOBS", "1")
        report = bench.run_bench(quick=True, benchmarks=["sjeng_06"],
                                 instructions=800, warmup=400)
        assert report["jobs"] == 1

    def test_compare_to_baseline_warns_on_regression(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64"], jobs=1, **REGION)
        assert bench.compare_to_baseline(report, report) == []
        inflated = json.loads(json.dumps(report))
        inflated["baseline"]["uops_per_second"] *= 10
        warnings = bench.compare_to_baseline(report, inflated)
        assert len(warnings) == 1
        assert "below the committed baseline" in warnings[0]

    def test_compare_to_baseline_tolerates_old_schema(self, bench_report):
        report = bench_report(benchmarks=["sjeng_06"],
                              variants=["tage64"], jobs=1, **REGION)
        assert bench.compare_to_baseline(report, {"schema": "v0"}) == []
