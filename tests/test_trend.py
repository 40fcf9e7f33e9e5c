"""BENCH trajectory trend report: loading, regression math, CLI."""

import json

import pytest

from repro.cli import main as cli_main
from repro.observe import trend as ot
from repro.sim import bench


def make_report(baseline=70_000, optimized=80_000, speedup=2.5,
                digests=None, instructions=3000, warmup=1500,
                benchmarks=("sjeng_06", "mcf_17"),
                variants=("tage64", "mini", "big"),
                schema="repro-bench-v2", manifest=None):
    report = {
        "schema": schema,
        "benchmarks": list(benchmarks),
        "variants": list(variants),
        "instructions": instructions,
        "warmup": warmup,
        "cells": len(benchmarks) * len(variants),
        "jobs": 1,
        "baseline": {"uops_per_second": baseline},
        "optimized": {"uops_per_second": optimized},
        "mpki_replay": {"speedup": speedup},
        "digests": digests or {"sjeng_06/tage64": "a" * 64},
    }
    if manifest is not None:
        report["manifest"] = manifest
    return report


def write_reports(tmp_path, reports):
    paths = []
    for index, report in enumerate(reports):
        path = tmp_path / f"BENCH_{index:02d}.json"
        path.write_text(json.dumps(report))
        paths.append(str(path))
    return paths


class TestLoading:
    def test_loads_in_input_order(self, tmp_path):
        paths = write_reports(tmp_path, [make_report(), make_report()])
        entries = ot.load_reports(paths)
        assert [entry["path"] for entry in entries] == paths

    def test_rejects_non_bench_documents(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text('{"schema": "repro-baseline-v1"}')
        with pytest.raises(ValueError, match="not a bench report"):
            ot.load_reports([str(path)])

    def test_rejects_unreadable_files(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load"):
            ot.load_reports([str(tmp_path / "BENCH_missing.json")])

    def test_default_paths_glob_sorted(self, tmp_path):
        for name in ("BENCH_seed.json", "BENCH_02.json", "notes.json"):
            (tmp_path / name).write_text("{}")
        paths = ot.default_report_paths(str(tmp_path))
        assert [p.rsplit("/", 1)[1] for p in paths] == \
            ["BENCH_02.json", "BENCH_seed.json"]


class TestTrendMath:
    def test_steady_throughput_is_ok(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(baseline=70_000), make_report(baseline=71_000)])
        trend = ot.build_trend(ot.load_reports(paths))
        assert trend["ok"]
        assert trend["passes"]["baseline"]["latest"] == 71_000
        assert not trend["passes"]["baseline"]["regressed"]

    def test_regression_vs_best_recorded_run(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(optimized=100_000),
            make_report(optimized=90_000),
            make_report(optimized=40_000)])  # 60% below best
        trend = ot.build_trend(ot.load_reports(paths), threshold=0.5)
        assert not trend["ok"]
        data = trend["passes"]["optimized"]
        assert data["regressed"]
        assert data["best"]["uops_per_second"] == 100_000
        assert any("optimized" in line for line in trend["regressions"])
        # the baseline pass did not move and stays clean
        assert not trend["passes"]["baseline"]["regressed"]

    def test_threshold_is_respected(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(optimized=100_000), make_report(optimized=55_000)])
        loose = ot.build_trend(ot.load_reports(paths), threshold=0.5)
        tight = ot.build_trend(ot.load_reports(paths), threshold=0.25)
        assert loose["ok"] and not tight["ok"]

    def test_different_matrix_is_listed_but_excluded(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(optimized=500_000, instructions=500),
            make_report(optimized=100_000),
            make_report(optimized=90_000)])
        trend = ot.build_trend(ot.load_reports(paths))
        assert trend["ok"]  # the 500k run is not comparable, not "best"
        rows = trend["reports"]
        assert [row["comparable"] for row in rows] == [False, True, True]
        assert trend["passes"]["optimized"]["best"][
            "uops_per_second"] == 100_000

    def test_digest_changes_tracked_per_cell(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(digests={"sjeng_06/tage64": "a" * 64}),
            make_report(digests={"sjeng_06/tage64": "a" * 64}),
            make_report(digests={"sjeng_06/tage64": "b" * 64})])
        trend = ot.build_trend(ot.load_reports(paths))
        assert trend["changed_cells"] == ["sjeng_06/tage64"]
        track = trend["cells"]["sjeng_06/tage64"]
        assert [point["digest"][0] for point in track["digests"]] == \
            ["a", "b"]

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError, match="no bench reports"):
            ot.build_trend([])

    def test_v3_manifest_provenance_surfaces(self, tmp_path):
        manifest = {"config_fingerprint": "f" * 64,
                    "host": {"git_sha": "abc123def456"}}
        paths = write_reports(tmp_path, [
            make_report(), make_report(schema="repro-bench-v3",
                                       manifest=manifest)])
        trend = ot.build_trend(ot.load_reports(paths))
        assert trend["reports"][1]["git_sha"] == "abc123def456"
        assert trend["reports"][0]["git_sha"] is None

    def test_format_mentions_every_report_and_verdict(self, tmp_path):
        paths = write_reports(tmp_path, [
            make_report(optimized=100_000),
            make_report(optimized=40_000)])
        trend = ot.build_trend(ot.load_reports(paths))
        text = ot.format_trend_report(trend)
        assert "BENCH_00.json" in text and "BENCH_01.json" in text
        assert "REGRESSED" in text
        assert "REGRESSION: optimized" in text


class TestTrendCli:
    def test_ok_trajectory_exits_zero(self, tmp_path, capsys):
        paths = write_reports(tmp_path, [make_report(), make_report()])
        assert cli_main(["trend", *paths, "--fail-on-regression"]) == 0
        assert "no throughput regressions" in capsys.readouterr().out

    def test_regression_gates_only_when_asked(self, tmp_path, capsys):
        paths = write_reports(tmp_path, [
            make_report(optimized=100_000), make_report(optimized=40_000)])
        assert cli_main(["trend", *paths]) == 0
        capsys.readouterr()
        assert cli_main(["trend", *paths, "--fail-on-regression"]) == 1

    def test_json_and_report_file(self, tmp_path, capsys):
        paths = write_reports(tmp_path, [make_report(), make_report()])
        out_path = tmp_path / "trend.json"
        assert cli_main(["trend", *paths, "--json",
                         "--report", str(out_path)]) == 0
        printed = json.loads(capsys.readouterr().out)
        written = json.loads(out_path.read_text())
        assert printed["schema"] == ot.TREND_SCHEMA
        assert written == printed

    def test_no_reports_is_a_usage_error(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["trend"]) == 2
        assert "no BENCH_*.json" in capsys.readouterr().err

    def test_real_bench_report_feeds_the_trend(self, tmp_path, capsys,
                                               shared_bench_passes):
        """End to end: a fresh manifest-stamped run trends against a
        committed-style older report."""
        report = bench.run_bench(benchmarks=["sjeng_06"],
                                 variants=["tage64"],
                                 instructions=600, warmup=300)
        assert report["schema"] == "repro-bench-v5"
        assert report["manifest"]["config_fingerprint"]
        old = make_report(benchmarks=("sjeng_06",), variants=("tage64",),
                          instructions=600, warmup=300,
                          baseline=report["baseline"]["uops_per_second"],
                          optimized=report["optimized"]["uops_per_second"],
                          digests=report["digests"])
        paths = write_reports(tmp_path, [old])
        new_path = tmp_path / "BENCH_new.json"
        new_path.write_text(json.dumps(report))
        code = cli_main(["trend", *paths, str(new_path),
                         "--fail-on-regression"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BENCH_new.json" in out
