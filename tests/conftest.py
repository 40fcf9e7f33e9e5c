"""Shared test fixtures.

The config layer reads ``REPRO_*`` environment variables at *resolution
time* (every call into the default session), so ambient variables from
the invoking shell — or from a CI leg that deliberately exports
conflicting ones — would silently reshape every test's region lengths
and cache bounds.  The autouse fixture below gives each test a clean
environment; tests that exercise the env layer set their own variables
through ``monkeypatch.setenv`` on top of it.

``run_bench`` always ends with two fixed-size microbench passes
(300k-instruction scalar-vs-batched replays) that cost far more than the
small matrices the tests ask for.  :func:`shared_bench_passes` runs each
of them once per test session, and :func:`bench_report` shares whole
reports between tests that call ``run_bench`` with the same arguments.
"""

import copy

import pytest

from repro.config import CONFIG_FILE_ENV, ENV_VARS
from repro.session import BATCH_REPLAY_ENV
from repro.sim import bench

#: ``_scalar_vs_batch_pass`` results, keyed by their call arguments.
_BENCH_PASSES = {}


def _strip_repro_env(monkeypatch):
    for var in (*ENV_VARS.values(), CONFIG_FILE_ENV, BATCH_REPLAY_ENV):
        monkeypatch.delenv(var, raising=False)


def _share_bench_passes(monkeypatch):
    real = bench._scalar_vs_batch_pass

    def shared(run_config, benchmark, instructions, warmup, make_lanes, tag):
        # the pass replays its own fixed region serially: the caller's
        # region and job count never reach it
        key = (run_config.replace(instructions=instructions, warmup=warmup,
                                  jobs=1),
               benchmark, instructions, warmup, make_lanes, tag)
        if key not in _BENCH_PASSES:
            _BENCH_PASSES[key] = real(run_config, benchmark, instructions,
                                      warmup, make_lanes, tag)
        report, mismatched = _BENCH_PASSES[key]
        return dict(report), list(mismatched)

    monkeypatch.setattr(bench, "_scalar_vs_batch_pass", shared)


@pytest.fixture(autouse=True)
def _clean_repro_env(monkeypatch):
    _strip_repro_env(monkeypatch)


@pytest.fixture
def shared_bench_passes(monkeypatch):
    """Reuse ``run_bench``'s microbench passes across the test session."""
    _share_bench_passes(monkeypatch)


@pytest.fixture(scope="session")
def bench_report():
    """``run_bench(**kwargs)``, run once per argument set per session.

    Each caller gets its own deep copy, so a test may mutate it freely.
    """
    reports = {}

    def run(**kwargs):
        key = repr(sorted(kwargs.items()))
        if key not in reports:
            with pytest.MonkeyPatch.context() as monkeypatch:
                _strip_repro_env(monkeypatch)
                _share_bench_passes(monkeypatch)
                reports[key] = bench.run_bench(**kwargs)
        return copy.deepcopy(reports[key])

    return run
