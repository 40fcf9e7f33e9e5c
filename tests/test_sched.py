"""Tests for the sweep scheduler (``repro.sched``).

Covers benchmark-aligned dispatch-unit construction, executor-name
resolution, pool sweeps spreading a ``compare --predictors`` matrix over
workers, store-backed sweep resume (only cells with no landed result execute; merged rows and
registries stay bit-identical to an uninterrupted run), the
``host.scheduler.*`` stat surface, the ``order_from`` plan-mismatch
warning, and the ``repro sweep report`` / ``resume`` exit-code contract.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import config as repro_config
from repro.cli import main as cli_main
from repro.config import RunConfig
from repro.observe.journal import read_journal
from repro.observe.sweep_report import (
    build_sweep_report,
    format_sweep_report,
)
from repro.registry import UnknownComponentError
from repro.sched import (
    EXECUTOR_CHOICES,
    ResultStore,
    SweepPlanMismatchWarning,
    build_units,
    resolve_executor_name,
    result_key,
    store_outputs_mode,
)
from repro.session import Session, merged_registry
from repro.sim import experiments
from repro.sim.bench import payload_digest

REGION = dict(instructions=800, warmup=400)

CELLS = [("sjeng_06", "bimodal"), ("sjeng_06", "gshare"),
         ("mcf_06", "bimodal"), ("mcf_06", "gshare")]


def session(**overrides):
    return Session(repro_config.current_config().replace(
        instructions=REGION["instructions"], warmup=REGION["warmup"],
        **overrides))


def scalar_task(index, benchmark, variant):
    """A task tuple in the shape ``run_cells`` compiles (scalar cell)."""
    return (None, benchmark, variant, 800, 400, True, "full",
            {"index": index})


def batch_task(index_map, benchmark):
    """A fused batch-group task: ``(variant, index)`` member tuples."""
    members = tuple(index_map)
    return (None, benchmark, members, 800, 400, True, "mpki",
            {"index": members[0][1]})


def host_stripped(registry):
    return {name: value
            for name, value in registry.to_flat_dict().items()
            if not name.startswith("host.")}


class TestExecutorRegistry:
    def test_builtin_backends_registered(self):
        assert EXECUTOR_CHOICES == ("auto", "inline", "pool")

    def test_auto_keeps_classic_split(self):
        assert resolve_executor_name("auto", 1, 10) == "inline"
        assert resolve_executor_name("auto", 4, 1) == "inline"
        assert resolve_executor_name(None, 4, 10) == "pool"
        assert resolve_executor_name("", 4, 10) == "pool"

    def test_explicit_name_wins_over_auto_rules(self):
        assert resolve_executor_name("inline", 8, 100) == "inline"
        assert resolve_executor_name("pool", 1, 1) == "pool"

    def test_unknown_backend_raises_with_suggestions(self):
        with pytest.raises(UnknownComponentError, match="pool"):
            resolve_executor_name("pol", 2, 10)


class TestBuildUnits:
    def _tasks(self, benchmarks=2, variants=3):
        return [scalar_task(b * variants + v, f"bench_{b}", f"var_{v}")
                for b in range(benchmarks) for v in range(variants)]

    def test_serial_mode_one_node_per_unit_no_deps(self):
        # an inline sweep dispatches one task per unit, so journal rows
        # land as each cell finishes
        sess = session()
        sess.run_cells(CELLS)
        assert sess.last_sweep["executor"] == "inline"
        assert sess.last_sweep["units"] == len(CELLS)

    def test_chunked_default_splits_benchmark_aligned(self):
        tasks = self._tasks(benchmarks=2, variants=4)
        units = build_units(tasks, list(range(len(tasks))), 4)
        # every unit stays within one benchmark and covers all tasks
        for unit in units:
            assert len({tasks[i][1] for i in unit}) == 1
        assert sorted(i for unit in units for i in unit) == list(range(8))
        assert len(units) >= 4  # ~jobs-scaled concurrency

    def test_one_unit_per_benchmark_when_jobs_do_not_need_more(self):
        tasks = self._tasks(benchmarks=3, variants=2)
        assert build_units(tasks, list(range(6)), 2) == \
            [[0, 1], [2, 3], [4, 5]]

    def test_batch_group_counts_as_one_task(self):
        # a fused batch group is one task whatever its cell count: a
        # benchmark holding one group cannot split further
        tasks = [batch_task([("bimodal", 0), ("gshare", 1),
                             ("tage64", 2), ("perceptron", 3)],
                            "sjeng_06"),
                 batch_task([("bimodal", 4), ("gshare", 5)], "mcf_06")]
        assert build_units(tasks, [0, 1], 4) == [[0], [1]]

    def test_resumed_tasks_are_left_out(self):
        tasks = self._tasks(benchmarks=2, variants=2)
        assert build_units(tasks, [1, 3], 2) == [[1], [3]]


class TestSchedulerJournal:
    def test_dag_built_event_records_structure(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS, journal=path)
        events = read_journal(path)["events"]
        assert events[0]["executor"] == "inline"
        (dag_built,) = [e for e in events if e["event"] == "dag_built"]
        assert dag_built["executor"] == "inline"
        assert dag_built["nodes"] == 4
        assert dag_built["units"] == 4
        assert dag_built["stream"] == "scheduler"

    def test_pool_sweep_with_shared_trace_dir_matches_serial(self,
                                                             tmp_path):
        trace_dir = tmp_path / "traces"
        path = str(tmp_path / "sweep.jsonl")
        sess = session(jobs=2, trace_cache_dir=str(trace_dir))
        rows = sess.run_cells(CELLS, jobs=2, journal=path)
        (dag_built,) = [e for e in read_journal(path)["events"]
                        if e["event"] == "dag_built"]
        assert dag_built["executor"] == "pool"
        assert dag_built["units"] == 2
        # a trace spilled to the shared directory must not change results
        reference = session().run_cells(CELLS)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference]

    def test_parallel_chunked_matches_serial(self):
        serial = session().run_cells(CELLS)
        parallel = session(jobs=2).run_cells(CELLS, jobs=2)
        assert [payload_digest(row["payload"]) for row in parallel] == \
            [payload_digest(row["payload"]) for row in serial]


class TestComparePredictorsParallelism:
    """``compare --predictors`` fuses each benchmark's predictors into one
    batch task; the pool must still spread the benchmarks over workers."""

    BENCHMARKS = ["sjeng_06", "mcf_06", "mcf_17"]
    PREDICTORS = ["tage64", "gshare", "bimodal", "perceptron"]

    def test_three_benchmarks_use_three_units_on_two_workers(
            self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_INSTRUCTIONS", "6000")
        monkeypatch.setenv("REPRO_WARMUP", "3000")
        swept = []
        run_cells = experiments.run_cells

        def recording_run_cells(cells, **kwargs):
            rows = run_cells(cells, **kwargs)
            swept.append((experiments.default_session().last_sweep, rows))
            return rows

        monkeypatch.setattr(experiments, "run_cells", recording_run_cells)
        assert cli_main(["compare", *self.BENCHMARKS,
                         "--predictors", *self.PREDICTORS,
                         "--jobs", "2", "--json"]) == 0
        capsys.readouterr()
        (stats, rows), = swept
        assert len(rows) == len(self.BENCHMARKS) * len(self.PREDICTORS)
        assert all(row["ok"] for row in rows)
        assert stats["executor"] == "pool"
        assert stats["units"] == len(self.BENCHMARKS)
        assert len({row["worker"]["pid"] for row in rows}) == 2


class TestHostSchedulerStats:
    def test_merge_publishes_scheduler_counters(self):
        sess = session()
        rows = sess.run_cells(CELLS, merge=True)
        flat = sess.registry.to_flat_dict()
        assert flat["host.scheduler.cells_scheduled"] == len(CELLS)
        assert flat["host.scheduler.cells_resumed_from_store"] == 0
        assert flat["host.scheduler.units"] == 4
        assert flat["host.scheduler.executor.inline"] == 1
        # host-scoped on purpose: payload digests strip stats.host, so
        # the new counters never perturb a scalar-identical payload
        reference = session().run_cells(CELLS)
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference]

    def test_run_matrix_merged_carries_scheduler_stats(self):
        matrix, registry = session().run_matrix(
            variants=["bimodal", "gshare"], benchmarks=["sjeng_06"],
            merged=True)
        flat = registry.to_flat_dict()
        assert flat["host.scheduler.cells_scheduled"] == 2
        assert "host.scheduler.executor.inline" in flat

    def test_store_counters_surface_under_host_scope(self, tmp_path):
        sess = session(result_store_dir=str(tmp_path / "store"))
        sess.run_cells(CELLS, merge=True)
        flat = sess.registry.to_flat_dict()
        assert flat["host.scheduler.store.stores"] == len(CELLS)
        assert flat["host.scheduler.store.misses"] == len(CELLS)


class TestStoreResume:
    def test_full_resume_executes_nothing(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = session(result_store_dir=store_dir)
        rows = first.run_cells(CELLS)
        assert first.last_sweep["cells_scheduled"] == len(CELLS)

        resumed = session(result_store_dir=store_dir)
        again = resumed.run_cells(CELLS)
        assert resumed.last_sweep["cells_scheduled"] == 0
        assert resumed.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert all(row["result_store_hit"] for row in again)
        assert [payload_digest(row["payload"]) for row in again] == \
            [payload_digest(row["payload"]) for row in rows]

    def test_partial_resume_executes_only_missing_cells(self, tmp_path):
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, **REGION)
        Session(config).run_cells(CELLS)
        # damage exactly one landed cell: blow its store entry away
        store = ResultStore(store_dir)
        key = result_key(config.fingerprint(), "mcf_06", "gshare",
                         REGION["instructions"], REGION["warmup"],
                         store_outputs_mode("full", "gshare"))
        os.remove(store.path_for(key))

        resumed = Session(config)
        rows = resumed.run_cells(CELLS)
        assert resumed.last_sweep["cells_scheduled"] == 1
        assert resumed.last_sweep["cells_resumed_from_store"] == 3
        executed = [row for row in rows
                    if not row.get("result_store_hit")]
        assert [(r["benchmark"], r["variant"]) for r in executed] == \
            [("mcf_06", "gshare")]

    def test_resumed_registry_matches_uninterrupted_run(self, tmp_path):
        store_dir = str(tmp_path / "store")
        reference_rows = session().run_cells(CELLS)
        session(result_store_dir=store_dir).run_cells(CELLS)
        resumed_rows = session(result_store_dir=store_dir).run_cells(CELLS)
        assert host_stripped(merged_registry(resumed_rows)) == \
            host_stripped(merged_registry(reference_rows))

    def test_resumed_rows_flagged_in_journal(self, tmp_path):
        store_dir = str(tmp_path / "store")
        session(result_store_dir=store_dir).run_cells(CELLS)
        path = str(tmp_path / "resume.jsonl")
        session(result_store_dir=store_dir).run_cells(CELLS, journal=path)
        journal = read_journal(path)
        finished = [e for e in journal["events"]
                    if e["event"] == "cell_finished"]
        assert len(finished) == len(CELLS)
        assert all(e.get("result_store_hit") for e in finished)
        (dag_built,) = [e for e in journal["events"]
                        if e["event"] == "dag_built"]
        assert dag_built["resumed_cells"] == [0, 1, 2, 3]
        assert journal["complete"]

    def test_store_hit_flag_absent_without_store(self, tmp_path):
        # store-less journals must stay byte-compatible: no new key
        path = str(tmp_path / "plain.jsonl")
        session().run_cells(CELLS, journal=path)
        finished = [e for e in read_journal(path)["events"]
                    if e["event"] == "cell_finished"]
        assert all("result_store_hit" not in e for e in finished)

    def test_cache_false_bypasses_store(self, tmp_path):
        store_dir = tmp_path / "store"
        session(result_store_dir=str(store_dir)).run_cells(
            CELLS, cache=False)
        assert not store_dir.exists()

    def test_batch_nodes_resume_whole_groups(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = session(result_store_dir=store_dir)
        rows = first.run_cells(CELLS, outputs="mpki")
        resumed = session(result_store_dir=store_dir)
        again = resumed.run_cells(CELLS, outputs="mpki")
        assert resumed.last_sweep["cells_resumed_from_store"] == len(CELLS)
        assert [payload_digest(row["payload"]) for row in again] == \
            [payload_digest(row["payload"]) for row in rows]


class TestPlanMismatch:
    def test_mismatched_order_from_warns_and_journals(self, tmp_path):
        prior = str(tmp_path / "prior.jsonl")
        session().run_cells(CELLS[:3], journal=prior)
        requested = CELLS[:2] + [("mcf_17", "bimodal")]
        path = str(tmp_path / "sweep.jsonl")
        with pytest.warns(SweepPlanMismatchWarning,
                          match="mcf_17/bimodal"):
            session().run_cells(requested, order_from=prior, journal=path)
        (event,) = [e for e in read_journal(path)["events"]
                    if e["event"] == "plan_mismatch"]
        assert event["unmatched_requested"] == ["mcf_17/bimodal"]
        assert event["unmatched_journal"] == ["mcf_06/bimodal"]
        report = build_sweep_report(path)
        assert report["plan_mismatch"]["unmatched_requested"] == \
            ["mcf_17/bimodal"]
        assert "plan mismatch" in format_sweep_report(report)

    def test_matching_plan_stays_silent(self, tmp_path):
        import warnings
        prior = str(tmp_path / "prior.jsonl")
        session().run_cells(CELLS, journal=prior)
        with warnings.catch_warnings():
            warnings.simplefilter("error", SweepPlanMismatchWarning)
            session().run_cells(CELLS, order_from=prior)


def _truncate_journal(path):
    """Drop ``sweep_finished`` — the journal a SIGKILLed sweep leaves."""
    lines = [line for line in open(path).read().splitlines()
             if '"sweep_finished"' not in line]
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


class TestSweepCliExitCodes:
    def test_report_exit_3_for_incomplete_resumable(self, tmp_path,
                                                    capsys):
        path = str(tmp_path / "sweep.jsonl")
        session(result_store_dir=str(tmp_path / "store")).run_cells(
            CELLS, journal=path)
        assert cli_main(["sweep", "report", path]) == 0
        _truncate_journal(path)
        assert cli_main(["sweep", "report", path]) == 3
        captured = capsys.readouterr()
        assert f"python -m repro sweep resume {path}" in captured.err

    def test_report_exit_1_for_failed_cells(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells([("sjeng_06", "bimodal"),
                             ("sjeng_06", "nonexistent-variant")],
                            journal=path)
        assert cli_main(["sweep", "report", path]) == 1

    def test_watch_once_exit_codes(self, tmp_path):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS[:2], journal=path)
        assert cli_main(["sweep", "watch", path, "--once"]) == 0
        _truncate_journal(path)
        assert cli_main(["sweep", "watch", path, "--once"]) == 3

    def test_resume_cli_completes_interrupted_sweep(self, tmp_path,
                                                    capsys):
        store_dir = str(tmp_path / "store")
        config = repro_config.current_config().replace(
            result_store_dir=store_dir, **REGION)
        path = str(tmp_path / "sweep.jsonl")
        Session(config).run_cells(CELLS, journal=path)
        _truncate_journal(path)
        # lose one landed result too: resume must execute exactly it
        store = ResultStore(store_dir)
        key = result_key(config.fingerprint(), "sjeng_06", "gshare",
                         REGION["instructions"], REGION["warmup"], "full")
        os.remove(store.path_for(key))

        assert cli_main(["sweep", "resume", path, "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells_total"] == len(CELLS)
        assert summary["cells_resumed_from_store"] == 3
        assert summary["cells_executed"] == 1
        assert summary["cells_failed"] == 0
        reference = session().run_cells(CELLS)
        assert summary["digests"] == {
            f"{row['benchmark']}/{row['variant']}":
            payload_digest(row["payload"]) for row in reference}
        resumed = read_journal(f"{path}.resume")
        assert resumed["complete"]

    def test_resume_without_store_is_hard_error(self, tmp_path, capsys):
        path = str(tmp_path / "sweep.jsonl")
        session().run_cells(CELLS[:2], journal=path)
        _truncate_journal(path)
        assert cli_main(["sweep", "resume", path]) == 2
        assert "no result store" in capsys.readouterr().err

    def test_resume_rejects_non_journal(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text("not a journal\n")
        assert cli_main(["sweep", "resume", str(garbage)]) == 2


class TestKillAndResume:
    """A real SIGKILL mid-sweep, resumed to bit-identical results."""

    BENCHMARKS = ["sjeng_06", "mcf_06", "mcf_17"]
    PREDICTORS = ["tage64", "gshare", "bimodal", "perceptron"]

    def test_sigkilled_sweep_resumes_only_remaining_cells(self, tmp_path):
        journal = str(tmp_path / "sweep.jsonl")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(
                       [os.path.join(os.path.dirname(__file__), os.pardir,
                                     "src")] +
                       os.environ.get("PYTHONPATH", "").split(os.pathsep)),
                   REPRO_INSTRUCTIONS="6000", REPRO_WARMUP="3000",
                   REPRO_RESULT_STORE_DIR=str(tmp_path / "store"))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "compare",
             *self.BENCHMARKS, "--predictors", *self.PREDICTORS,
             "--journal", journal, "--json"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                if os.path.exists(journal) and any(
                        '"cell_finished"' in line
                        for line in open(journal)):
                    break
                time.sleep(0.005)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait()
        journal_doc = read_journal(journal)
        assert not journal_doc["complete"]
        landed = len(list((tmp_path / "store").glob("*.result")))

        config = repro_config.current_config().replace(
            instructions=6000, warmup=3000,
            result_store_dir=str(tmp_path / "store"))
        cells = [tuple(cell) for cell in journal_doc["events"][0]["cells"]]
        resumed = Session(config)
        rows = resumed.run_cells(cells, outputs="mpki")
        # only cells with no landed result executed (batch fusion may
        # re-run a partially-landed group, so executed >= missing)
        stats = resumed.last_sweep
        assert stats["cells_resumed_from_store"] + \
            stats["cells_scheduled"] == len(cells)
        assert stats["cells_resumed_from_store"] <= landed

        reference = Session(config.replace(result_store_dir=None))
        reference_rows = reference.run_cells(cells, outputs="mpki")
        assert [payload_digest(row["payload"]) for row in rows] == \
            [payload_digest(row["payload"]) for row in reference_rows]
        assert host_stripped(merged_registry(rows)) == \
            host_stripped(merged_registry(reference_rows))
