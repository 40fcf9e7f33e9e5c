"""Differential suite: bulk fold rows vs the incremental folded histories.

Batched replay computes every TAGE and statistical-corrector folded
history of a stream in one vectorized pass
(:class:`~repro.predictors.storage.OutcomeFolds`).  The columnar kernel
builds its per-block table indices and tags from it
(``TagePredictor.hash_rows``, ``StatisticalCorrector.index_rows``), and
lockstep lanes below the kernel cutover take their history pushes from
it (``load_fold_rows``).  Both must be bit-identical to the per-event
SWAR folds that ``predict()`` and ``compute_sum()`` read:

* rows are compared event by event with the indices and tags a plain
  predictor materializes, for the registered TAGE-SC-L geometries and
  randomized ones (history lengths that are multiples of the compressed
  length, lengths beyond the stream, 0- and 1-event streams, 16- and
  32-bit SWAR lanes);
* row-fed lockstep lanes return the mispredict lists of a plain
  ``observe`` loop and end in the same state, and hold no row buffers
  once replay returns.
"""

import random

import numpy as np
import pytest

from repro.predictors import tage_batch
from repro.predictors.batched import _lockstep, replay_lanes
from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.registry import make_predictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.storage import OutcomeFolds
from repro.predictors.tage import TageConfig, TagePredictor
from repro.predictors.tage_scl import TageSCL
from repro.sim.predictor_replay import load_branch_columns, replay_mpki_batch
from repro.workloads import registry

SEEDS = [0, 1042]
TAGE_SCL_NAMES = ("tage64", "tage80", "mtage")


def random_stream(rng, events, static_pcs=40):
    pcs = [rng.randrange(1 << 22) for _ in range(static_pcs)]
    pc_column = [rng.choice(pcs) for _ in range(events)]
    taken_column = [int(rng.random() < 0.6) for _ in range(events)]
    return pc_column, taken_column


def columns(pcs, takens):
    return (np.asarray(pcs, dtype=np.int64),
            np.asarray(takens, dtype=np.uint8) != 0)


def random_scl(rng, events):
    """A TAGE-SC-L of random geometry with hand-picked history lengths.

    Lengths include multiples of every compressed length (``L mod C ==
    0``) and, when the stream is short, lengths past its end; all stay
    within the history ring (``<= max_history + 1``).
    """
    size_log2 = rng.randrange(3, 17)
    tag_bits = rng.randrange(2, 21)
    comp_lens = (size_log2, tag_bits, max(tag_bits - 1, 1))
    lengths = {rng.randrange(0, 3 * events + 8) for _ in range(4)}
    lengths.update(comp * rng.randrange(1, 4) for comp in comp_lens)
    lengths = sorted(lengths)
    max_history = lengths[-1] + rng.randrange(0, 3) - 1
    cfg = TageConfig(num_tables=len(lengths), table_size_log2=size_log2,
                     tag_bits=tag_bits, min_history=1,
                     max_history=max(max_history, 1), base_size_log2=8)
    cfg.history_lengths = lengths
    sc_log2 = rng.randrange(2, 15)
    sc_lengths = sorted({rng.randrange(1, 60) for _ in range(5)}
                        | {sc_log2, 2 * sc_log2})
    return TageSCL(tage_config=cfg, loop=LoopPredictor(size_log2=4),
                   corrector=StatisticalCorrector(sc_lengths, sc_log2))


def swar_rows(predictor, pcs, takens):
    """Indices/tags/SC indices as ``predict()`` materializes them."""
    idx, tag, sc = [], [], []
    for pc, taken in zip(pcs, takens):
        predictor.predict(pc)
        idx.append(list(predictor.tage._indices))
        tag.append(list(predictor.tage._tags))
        sc.append(list(predictor.corrector._ctx_indices))
        predictor.update(pc, bool(taken))
    return idx, tag, sc


def assert_rows_match(predictor, pcs, takens):
    pcs_v, taken_v = columns(pcs, takens)
    folds = OutcomeFolds(np, taken_v)
    count = len(pcs)
    idx, tag = predictor.tage.hash_rows(folds, pcs_v, 0, count)
    sc = predictor.corrector.index_rows(folds, pcs_v, 0, count)
    assert idx.shape == (count, predictor.tage._num_tables)
    assert sc.shape == (count, len(predictor.corrector.history_lengths))
    want_idx, want_tag, want_sc = swar_rows(predictor, pcs, takens)
    assert idx.tolist() == want_idx
    assert tag.tolist() == want_tag
    assert sc.tolist() == want_sc
    # any block boundary gives the same rows as the whole stream
    if count > 2:
        cut = count // 3
        tail_idx, tail_tag = predictor.tage.hash_rows(folds, pcs_v, cut,
                                                      count)
        assert tail_idx.tolist() == want_idx[cut:]
        assert tail_tag.tolist() == want_tag[cut:]


class TestRowsMatchSwarFolds:

    @pytest.mark.parametrize("name", TAGE_SCL_NAMES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_registered_geometries(self, name, seed):
        pcs, takens = random_stream(random.Random(seed), 1_500)
        assert_rows_match(make_predictor(name), pcs, takens)

    def test_lane_widths_covered(self):
        widths = {make_predictor(name).tage._lane for name in TAGE_SCL_NAMES}
        assert widths == {16, 32}

    @pytest.mark.parametrize("seed", range(12))
    def test_random_geometries(self, seed):
        rng = random.Random(seed)
        events = rng.choice([0, 1, 2, 17, 300, 900])
        predictor = random_scl(rng, events)
        pcs, takens = random_stream(rng, events)
        assert_rows_match(predictor, pcs, takens)

    def test_random_geometries_cover_edges(self):
        widths, multiple, beyond = set(), False, False
        for seed in range(12):
            rng = random.Random(seed)
            events = rng.choice([0, 1, 2, 17, 300, 900])
            tage = random_scl(rng, events).tage
            widths.add(tage._lane)
            for length in tage._hist_lengths:
                multiple |= length > 0 and length % tage._fi_len == 0
                beyond |= length >= events
        assert widths == {16, 32} and multiple and beyond


def row_fed_lockstep(predictors, pcs, takens, split):
    _, taken_v = columns(pcs, takens)
    fed = [part for predictor in predictors
           for part in tage_batch.fold_parts(predictor)]
    return _lockstep(predictors, pcs, takens, split,
                     OutcomeFolds(np, taken_v), fed)


def assert_same_state(fed, plain):
    assert fed.export_state() == plain.export_state()
    for part, twin in zip(tage_batch.fold_parts(fed),
                          tage_batch.fold_parts(plain)):
        assert set(vars(part)) == set(vars(twin))


class TestRowFedLockstep:

    @pytest.mark.parametrize("seed", range(8))
    def test_random_geometries(self, seed):
        rng = random.Random(100 + seed)
        events = rng.choice([0, 1, 2, 300, 2_500])
        pcs, takens = random_stream(rng, events)
        split = rng.randrange(events + 1)
        geometry = rng.getstate()
        fed = [random_scl(rng, events)]
        rng.setstate(geometry)
        plain = [random_scl(rng, events)]
        fed.append(TagePredictor(fed[0].tage.config))
        plain.append(TagePredictor(plain[0].tage.config))
        assert row_fed_lockstep(fed, pcs, takens, split) == \
            _lockstep(plain, pcs, takens, split)
        for lane, twin in zip(fed, plain):
            assert_same_state(lane, twin)

    def test_stream_longer_than_a_block(self):
        # several fold blocks, loaded in order, continue the same folds
        pcs, takens = random_stream(random.Random(5), 5_000)
        fed, plain = make_predictor("tage64"), make_predictor("tage64")
        assert row_fed_lockstep([fed], pcs, takens, 1_000) == \
            _lockstep([plain], pcs, takens, 1_000)
        assert_same_state(fed, plain)

    def test_degenerate_history_declined(self):
        # a length past the history ring aliases in the incremental
        # folds; such a lane must leave the row-fed and kernel paths
        cfg = TageConfig(num_tables=3, table_size_log2=5, tag_bits=6,
                         min_history=2, max_history=8, base_size_log2=6)
        cfg.history_lengths = [2, 5, 10]  # the ring holds 10 bits
        assert not tage_batch.supported(TagePredictor(cfg))
        pcs, takens = random_stream(random.Random(9), 600)
        assert replay_lanes([TagePredictor(cfg)], pcs, takens, 100) == \
            _lockstep([TagePredictor(cfg)], pcs, takens, 100)


@pytest.mark.parametrize("program",
                         [b.name for b in registry.all_benchmarks()])
def test_registered_predictors_every_benchmark(program, monkeypatch):
    # below the kernel cutover every TAGE-SC-L lane runs row-fed lockstep
    loads = []
    original = TagePredictor.load_fold_rows
    monkeypatch.setattr(
        TagePredictor, "load_fold_rows",
        lambda self, *args: loads.append(self) or original(self, *args))
    stream = load_branch_columns(registry.load(program), 0, 4_000)
    split = len(stream.pcs) // 4
    fed = [make_predictor(name) for name in TAGE_SCL_NAMES]
    plain = [make_predictor(name) for name in TAGE_SCL_NAMES]
    assert replay_lanes(fed, stream.pcs, stream.takens, split,
                        min_lanes=99) == \
        _lockstep(plain, stream.pcs, stream.takens, split)
    assert {id(tage) for tage in loads} == {id(p.tage) for p in fed}
    for lane, twin in zip(fed, plain):
        assert_same_state(lane, twin)


def test_batch_results_hold_no_row_buffers():
    results = replay_mpki_batch(registry.load("sjeng_06"),
                                list(TAGE_SCL_NAMES), instructions=3_000,
                                warmup=1_000, min_lanes=99)
    for name, result in zip(TAGE_SCL_NAMES, results):
        fresh = make_predictor(name)
        for part, twin in zip(tage_batch.fold_parts(result.predictor),
                              tage_batch.fold_parts(fresh)):
            assert set(vars(part)) == set(vars(twin))
            assert "_push_history" not in vars(part)
