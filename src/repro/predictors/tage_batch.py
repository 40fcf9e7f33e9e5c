"""Columnar TAGE batch kernel: N TAGE/TAGE-SC-L lanes, one stream pass.

The batched replay engine (:mod:`repro.predictors.batched`) used to route
every TAGE-family lane through the scalar lockstep fallback — the sweeps
that matter most to the paper's figures (TAGE-SC-L / MTAGE baselines) were
the slowest ones we ran.  This module vectorizes them across the *lane*
axis while exploiting the one thing all lanes share: the branch stream.

Structure
---------

* **Geometry groups.**  Table indices and tags are functions of the PC and
  the outcome stream alone — never of table state — so lanes that agree on
  the hash geometry (``num_tables``, ``table_size_log2``, ``tag_bits``,
  history lengths; plus the corrector's sizing for TAGE-SC-L lanes) share
  one set of per-block index/tag rows, built from the stream's bulk
  folded histories (:class:`~repro.predictors.storage.OutcomeFolds`,
  ``TagePredictor.hash_rows``, ``StatisticalCorrector.index_rows``).  The
  same folds serve lanes a group too small for the kernel leaves to
  lockstep: :func:`fold_parts` names the components whose history pushes
  the lockstep pass then loads from them.

* **Block precompute.**  Tag tables mutate only on allocation (rare), so
  whole blocks of events resolve their tag matches, provider/altpred table
  selection, and flat gather indices in a handful of large numpy ops; the
  per-event arrays are laid out events-major (``(block, lanes)``) so the
  inner loop reads contiguous rows.  A mid-block allocation surgically
  patches the few affected later events of the same lane, found through a
  lazily built per-table inverted index instead of a linear scan.

* **Stacked divergent state.**  Everything that differs per lane —
  counters, tags, useful bits, bimodal base, use_alt_on_na, loop entries,
  corrector weights, adaptive thresholds, the allocation LFSR — lives in
  ``(lanes, entries)``-shaped (or lane-offset flat) numpy arrays from
  :func:`repro.predictors.storage.stacked_store`, updated with one
  gather/scatter per field per event across all lanes at once.  Allocation
  itself is the one inherently scalar step (a data-dependent chain of LFSR
  draws); it runs per *mispredicting* lane only, driving a real
  :class:`~repro.predictors.storage.Lfsr` so the draw sequence is
  bit-identical.

* **LUT automata.**  Saturating/branchy per-lane state machines — the
  ``use_alt_on_na`` counter, the corrector's (threshold, hysteresis)
  pair, the loop predictor's (confidence, age) fields, and the useful
  counter's train step — advance through precomputed transition tables:
  one cheap gather replaces a chain of compares and selects.  The small
  per-event numpy ops are overhead-bound, so operands are pre-broadcast
  constant arrays and any-lane gates probe raw bytes (``in .tobytes()``)
  rather than reducing.

Bit-identity to the scalar ``predict → update`` discipline — mispredict
PC sequences, and therefore MPKI, per-PC breakdowns, and payload digests —
is the contract, pinned by ``tests/test_tage_batch_differential.py``
against the reference implementations and by ``tests/test_batch_replay.py``
against the lockstep backend; ``tests/test_fold_rows.py`` pins the bulk
rows against the incremental folds.  Lanes are gated on being *pristine*
and exact-type (`supported`); anything else stays on the plain lockstep
path.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Sequence, Tuple

from repro.predictors.loop_predictor import LoopPredictor
from repro.predictors.statistical_corrector import StatisticalCorrector
from repro.predictors.storage import Lfsr, stacked_store
from repro.predictors.tage import TagePredictor
from repro.predictors.tage_scl import TageSCL

#: Events per precompute block: large enough to amortize the block-level
#: gathers, small enough that the (lanes, block, tables) match tensor and
#: mid-block allocation patch maps stay cache-friendly.
BLOCK_EVENTS = 1024

__all__ = ["BLOCK_EVENTS", "supported", "fold_parts", "run_tage_lanes"]


# -- lane gating -------------------------------------------------------------

def _geometry_ok(cfg) -> bool:
    # dtype envelopes of the stacked arrays (int8 counters with headroom
    # for the pre-clamp +/-1, uint16 tags, float64-exact provider packing);
    # bulk fold rows equal the incremental folds only while every history
    # length fits the predictor's history ring
    return (cfg.counter_bits <= 7
            and all(0 <= length <= cfg.max_history + 1
                    for length in cfg.history_lengths)
            and cfg.useful_bits <= 7
            and cfg.tag_bits <= 16
            and cfg.table_size_log2 <= 24
            and cfg.num_tables <= 52
            and cfg.base_size_log2 <= 30
            and cfg.useful_reset_period > 0)


def _pristine(predictor, fresh) -> bool:
    return predictor.export_state() == fresh.export_state()


def supported(predictor) -> bool:
    """Whether a lane qualifies for the columnar TAGE kernel.

    Exact-type checks (a subclass may override any step) plus geometry
    envelopes plus a full pristine-state comparison against a freshly
    constructed twin — the kernel starts its stacked arrays from the
    construction fill values, so trained state would silently drift.
    """
    if type(predictor) is TagePredictor:
        return (_geometry_ok(predictor.config)
                and _pristine(predictor, TagePredictor(predictor.config)))
    if type(predictor) is not TageSCL:
        return False
    if type(predictor.tage) is not TagePredictor \
            or type(predictor.loop) is not LoopPredictor \
            or type(predictor.corrector) is not StatisticalCorrector:
        return False
    loop = predictor.loop
    corrector = predictor.corrector
    if not (_geometry_ok(predictor.tage.config)
            and loop.size_log2 <= 24
            and loop.tag_bits <= 60
            and corrector.table_size_log2 <= 24):
        return False
    fresh = TageSCL(predictor.tage.config,
                    loop=LoopPredictor(loop.size_log2, loop.tag_bits),
                    corrector=StatisticalCorrector(
                        corrector.history_lengths,
                        corrector.table_size_log2))
    return _pristine(predictor, fresh)


def fold_parts(predictor) -> tuple:
    """The components of a :func:`supported` lane that fold history.

    Each has ``load_fold_rows``/``unload_fold_rows``, through which the
    lockstep fallback serves the lane's history pushes from bulk fold
    rows instead of advancing its folds per event.
    """
    if type(predictor) is TagePredictor:
        return (predictor,)
    return (predictor.tage, predictor.corrector)


def _tage_sig(cfg) -> tuple:
    return (cfg.num_tables, cfg.table_size_log2, cfg.tag_bits,
            cfg.max_history, tuple(cfg.history_lengths))


def _group_key(predictor) -> tuple:
    """Lanes sharing this key share hash engines (fold/index streams)."""
    if type(predictor) is TagePredictor:
        return ("tage", _tage_sig(predictor.config))
    corrector = predictor.corrector
    return ("scl", _tage_sig(predictor.tage.config),
            tuple(corrector.history_lengths), corrector.table_size_log2)


def _dedupe_key(predictor) -> tuple:
    """Full sizing signature: equal keys mean identical lane evolution."""
    if type(predictor) is TagePredictor:
        cfg = predictor.config
        return ("tage", _tage_sig(cfg), cfg.counter_bits, cfg.useful_bits,
                cfg.base_size_log2, cfg.useful_reset_period)
    cfg = predictor.tage.config
    loop = predictor.loop
    corrector = predictor.corrector
    return ("scl", _tage_sig(cfg), cfg.counter_bits, cfg.useful_bits,
            cfg.base_size_log2, cfg.useful_reset_period,
            loop.size_log2, loop.tag_bits,
            tuple(corrector.history_lengths), corrector.table_size_log2)


# -- entry point -------------------------------------------------------------

def run_tage_lanes(np, predictors, lanes: Sequence[int], folds, pcs_v,
                   split: int, min_lanes: int
                   ) -> Tuple[Dict[int, List[int]], Dict[int, int],
                              List[int]]:
    """Partition qualifying lanes into kernel groups and run each.

    Returns ``(results, alias, declined)``: per-lane mispredict lists for
    lanes the kernel ran, an alias map pointing duplicate-configuration
    lanes at their representative (duplicates share the representative's
    result *object*, whichever path produced it), and representative
    lanes from groups too small to beat lockstep (``min_lanes``) which
    the caller must route to the fallback.  ``folds`` is the stream's
    :class:`~repro.predictors.storage.OutcomeFolds`, which also carries
    its outcome column.
    """
    reps: Dict[tuple, int] = {}
    alias: Dict[int, int] = {}
    groups: Dict[tuple, List[int]] = {}
    for lane in lanes:
        predictor = predictors[lane]
        key = _dedupe_key(predictor)
        if key in reps:
            alias[lane] = reps[key]
            continue
        reps[key] = lane
        groups.setdefault(_group_key(predictor), []).append(lane)
    results: Dict[int, List[int]] = {}
    declined: List[int] = []
    for members in groups.values():
        if len(members) < max(min_lanes, 1):
            declined.extend(members)
            continue
        lists = _run_group(np, [predictors[lane] for lane in members],
                           folds, pcs_v, split)
        for lane, mispredicts in zip(members, lists):
            results[lane] = mispredicts
    return results, alias, declined


# -- transition LUTs ---------------------------------------------------------

def _use_alt_lut(np):
    """use_alt_on_na step on the premultiplied state ``(ua + 8) << 2``.

    ``LUT[scaled | (train << 1) | alt_correct]`` yields the next scaled
    state, so the per-event index is two adds on the live state array.
    """
    lut = np.empty(64, dtype=np.int64)
    for value in range(-8, 8):
        for train in (0, 1):
            for correct in (0, 1):
                if not train:
                    nxt = value
                elif correct:
                    nxt = min(value + 1, 7)
                else:
                    nxt = max(value - 1, -8)
                lut[((value + 8) << 2) | (train << 1) | correct] = \
                    (nxt + 8) << 2
    return lut


#: corrector threshold automaton: threshold in [4, 31], counter in [-3, 3]
_SC_STATES = 28 * 7


def _sc_state(threshold: int, counter: int) -> int:
    return (threshold - 4) * 7 + (counter + 3)


def _sc_threshold_luts(np):
    """Premultiplied adaptive-threshold automaton tables.

    States are stored as ``sid * 4`` so the transition index is
    ``state | (adjust << 1) | sc_correct`` with no per-event shift.
    Returns ``(step, thr, thr2, thr4)``: the transition LUT plus the
    threshold, doubled and quadrupled, of each (premultiplied) state.
    """
    step = np.empty(_SC_STATES * 4, dtype=np.int64)
    thr_of = np.zeros(_SC_STATES * 4, dtype=np.int64)
    thr2_of = np.zeros(_SC_STATES * 4, dtype=np.int64)
    thr4_of = np.zeros(_SC_STATES * 4, dtype=np.int64)
    for threshold in range(4, 32):
        for counter in range(-3, 4):
            sid = _sc_state(threshold, counter) << 2
            thr_of[sid] = threshold
            thr2_of[sid] = 2 * threshold
            thr4_of[sid] = 4 * threshold
            for adjust in (0, 1):
                for sc_correct in (0, 1):
                    nthr, nctr = threshold, counter
                    if adjust:
                        if sc_correct:
                            nctr -= 1
                            if nctr <= -4:
                                nctr = 0
                                if nthr > 4:
                                    nthr -= 1
                        else:
                            nctr += 1
                            if nctr >= 4:
                                nctr = 0
                                if nthr < 31:
                                    nthr += 1
                    step[sid | (adjust << 1) | sc_correct] = \
                        _sc_state(nthr, nctr) << 2
    return step, thr_of, thr2_of, thr4_of


def _loop_ca_lut(np):
    """Loop predictor (confidence, age) automaton.

    Entry state is packed ``ca = age | (confidence << 3)`` (so the
    confident test is one compare, ``ca >= 24``); the transition index
    appends ``tag_ok``, ``agree``, ``complete`` (= trip count reached)
    and ``run_past`` (= overran the learned count) bits.  Bit 5 of the
    output flags an allocation, which the caller must strip and act on
    (tag/direction/iteration writes happen outside the LUT).
    """
    lut = np.empty(512, dtype=np.int64)
    for ca in range(32):
        age = ca & 7
        conf = ca >> 3
        for tag_ok in (0, 1):
            for agree in (0, 1):
                for complete in (0, 1):
                    for run_past in (0, 1):
                        alloc = 0
                        if not tag_ok:
                            if age == 0:
                                conf2, age2, alloc = 0, 7, 1
                            else:
                                conf2, age2 = conf, age - 1
                        elif agree:
                            conf2 = 0 if run_past else conf
                            age2 = age
                        elif complete:
                            conf2 = min(conf + 1, 3)
                            age2 = min(age + 1, 7)
                        else:
                            conf2, age2 = 0, age
                        lut[ca | (tag_ok << 5) | (agree << 6)
                            | (complete << 7) | (run_past << 8)] = \
                            age2 | (conf2 << 3) | (alloc << 5)
    return lut


def _useful_luts(np, useful_maxes):
    """Useful-counter train step, one 512-entry class per distinct max.

    ``LUT[class | (u << 2) | (active << 1) | provider_correct]`` yields
    the next useful value; returns ``(lut, per-lane class offsets)``.
    """
    classes = sorted(set(useful_maxes))
    lut = np.empty(len(classes) * 512, dtype=np.int64)
    offsets = {}
    for position, umax in enumerate(classes):
        offset = position * 512
        offsets[umax] = offset
        for u in range(128):
            for active in (0, 1):
                for correct in (0, 1):
                    if not active:
                        nxt = u
                    elif correct:
                        nxt = min(u + 1, umax)
                    else:
                        nxt = u - 1 if u > 0 else 0
                    lut[offset | (u << 2) | (active << 1) | correct] = nxt
    lane_off = np.asarray([offsets[umax] for umax in useful_maxes],
                          dtype=np.int64)
    return lut, lane_off


# -- the kernel --------------------------------------------------------------

def _run_group(np, reps, folds, pcs_v, split: int) -> List[List[int]]:
    """Advance one geometry group's lanes over the whole stream."""
    taken_v = folds.taken_v
    scl = type(reps[0]) is TageSCL
    tages = [p.tage if scl else p for p in reps]
    lane_count = len(reps)
    lane_range = range(lane_count)
    t0 = tages[0]
    num_tables = t0._num_tables
    size = t0._mask + 1
    stride = num_tables * size + 1  # one scratch slot per lane
    scratch = num_tables * size

    # stacked divergent TAGE state (construction fill values: the pristine
    # gate in supported() guarantees the instances still hold them)
    ctr = stacked_store(np, lane_count, stride, dtype=np.int8).ravel()
    useful = stacked_store(np, lane_count, stride, dtype=np.uint8).ravel()
    tags = stacked_store(np, lane_count, num_tables * size,
                         dtype=np.uint16 if t0.config.tag_bits <= 16
                         else np.uint32)
    base_sizes = [1 << t.config.base_size_log2 for t in tages]
    base = np.ones(sum(base_sizes), dtype=np.int8)
    base_off = np.zeros(lane_count, dtype=np.int64)
    base_off[1:] = np.cumsum(np.asarray(base_sizes[:-1], dtype=np.int64))
    base_masks = np.asarray([s - 1 for s in base_sizes], dtype=np.int64)
    lane_off = np.arange(lane_count, dtype=np.int64) * stride
    lane_off_list = lane_off.tolist()
    ctr_max = np.asarray([t._ctr_max for t in tages], dtype=np.int8)
    ctr_min = np.asarray([t._ctr_min for t in tages], dtype=np.int8)
    ua_lut = _use_alt_lut(np)
    u_lut, u_lane_off = _useful_luts(np, [t._useful_max for t in tages])
    # premultiplied use_alt_on_na state, (0 + 8) << 2 at construction
    use_alt = np.full(lane_count, 32, dtype=np.int64)
    lfsrs = [Lfsr() for _ in lane_range]
    periods = [t.config.useful_reset_period for t in tages]
    tick = 0
    next_reset = [period for period in periods]
    next_due = min(next_reset)

    # pre-broadcast constant operands: a scalar operand costs ~2x an
    # array operand at these widths (numpy wraps it per call)
    z8 = np.zeros(lane_count, dtype=np.int8)
    c1_i8 = np.ones(lane_count, dtype=np.int8)
    c1_u8 = np.ones(lane_count, dtype=np.uint8)
    c2_i8 = np.full(lane_count, 2, dtype=np.int8)
    c3_i8 = np.full(lane_count, 3, dtype=np.int8)
    z64 = np.zeros(lane_count, dtype=np.int64)
    c2_64 = np.full(lane_count, 2, dtype=np.int64)
    c4_64 = np.full(lane_count, 4, dtype=np.int64)
    c32_64 = np.full(lane_count, 32, dtype=np.int64)
    ua_nonneg = use_alt >= c32_64  # cached: (ua + 8) << 2 >= 32 iff ua >= 0

    if scl:
        # loop predictor (sizes may differ per lane: flat + offsets);
        # confidence/age live packed as age | conf << 3 for the automaton
        loops = [p.loop for p in reps]
        loop_sizes = [1 << loop.size_log2 for loop in loops]
        loop_off = np.zeros(lane_count, dtype=np.int64)
        loop_off[1:] = np.cumsum(np.asarray(loop_sizes[:-1],
                                            dtype=np.int64))
        loop_total = sum(loop_sizes)
        ltags = np.full(loop_total, -1, dtype=np.int64)
        lpast = np.zeros(loop_total, dtype=np.int64)
        lcur = np.zeros(loop_total, dtype=np.int64)
        lca = np.zeros(loop_total, dtype=np.int64)
        ldir = np.ones(loop_total, dtype=bool)
        loop_masks = np.asarray([s - 1 for s in loop_sizes],
                               dtype=np.int64)
        loop_shift = np.asarray([loop.size_log2 for loop in loops],
                                dtype=np.int64)
        loop_tag_mask = np.asarray([loop._tag_mask for loop in loops],
                                   dtype=np.int64)
        loop_lut = _loop_ca_lut(np)
        c24_64 = np.full(lane_count, 24, dtype=np.int64)
        c64_64 = np.full(lane_count, 64, dtype=np.int64)
        c128_64 = np.full(lane_count, 128, dtype=np.int64)
        c256_64 = np.full(lane_count, 256, dtype=np.int64)
        # statistical corrector (geometry shared across the group)
        sc0 = reps[0].corrector
        n_sc = len(sc0.history_lengths)
        sc_size = 1 << sc0.table_size_log2
        sct = np.zeros(lane_count * n_sc * sc_size, dtype=np.int8)
        sc_lane_off = np.arange(lane_count,
                                dtype=np.int64) * (n_sc * sc_size)
        bias = np.zeros(lane_count * 2 * sc_size, dtype=np.int8)
        bias_off = np.arange(lane_count, dtype=np.int64) * (2 * sc_size)
        bias_mask = sc0._bias_mask
        sc_t_off = np.arange(n_sc, dtype=np.int64) * sc_size
        sc_step_lut, sc_thr_of, sc_thr2_of, sc_thr4_of = \
            _sc_threshold_luts(np)
        sc_state = np.full(lane_count, _sc_state(6, 0) << 2,
                           dtype=np.int64)
        ones_sc = np.ones(n_sc, dtype=np.int64)
        c8_64 = np.full(lane_count, 8, dtype=np.int64)
        # the sum's +1-per-counter centering terms, with the folded-in
        # TAGE-direction term's -8 half (the +16 half rides on the sum)
        cb_m8 = np.full(lane_count, n_sc + 1 - 8, dtype=np.int64)
        c31_i8 = np.full(lane_count, 31, dtype=np.int8)
        cm32_i8 = np.full(lane_count, -32, dtype=np.int8)
        c31_2d = np.full((lane_count, n_sc), 31, dtype=np.int8)
        cm32_2d = np.full((lane_count, n_sc), -32, dtype=np.int8)

    table_off = np.arange(num_tables, dtype=np.int64) * size
    last_table = num_tables - 1
    lanes_out: List[List[int]] = [[] for _ in lane_range]
    appends = [lane.append for lane in lanes_out]
    event_count = len(pcs_v)

    for block_start in range(0, event_count, BLOCK_EVENTS):
        block_end = min(block_start + BLOCK_EVENTS, event_count)
        block = block_end - block_start
        pcs_list = pcs_v[block_start:block_end].tolist()
        tk_list = taken_v[block_start:block_end].tolist()
        pcs_blk = pcs_v[block_start:block_end]
        rows = np.arange(block)[:, None]

        # hashes depend on the stream alone: the block's index/tag rows
        # come from the bulk folds, through the group's first lane (it
        # only supplies geometry and stays untouched)
        idx_blk, tag_blk = t0.hash_rows(folds, pcs_v, block_start,
                                        block_end)         # (B, T)
        gidx_blk = idx_blk + table_off                     # (B, T)

        # tag matches and provider/alt selection for the whole block;
        # everything the event loop reads is events-major (contiguous
        # per-event rows).  Allocation events patch their own lane's
        # later rows in place.
        match = tags[:, gidx_blk] == \
            tag_blk.astype(tags.dtype)[None, :, :]         # (L, B, T)
        packed = np.packbits(match, axis=2, bitorder="little")
        weights = (np.int64(1) << (8 * np.arange(packed.shape[2],
                                                 dtype=np.int64)))
        match_bits = packed @ weights                      # (L, B) int64
        provT = np.ascontiguousarray(
            (np.frexp(match_bits)[1] - 1).T)               # (B, L), -1=none
        top = np.where(provT >= 0, np.ldexp(1.0, provT), 0.0)
        altT = np.frexp(match_bits.T - top)[1] - 1
        has_provT = provT >= 0
        has_altT = altT >= 0
        not_provT = ~has_provT
        can_allocT = provT < last_table
        prov_safe = np.where(has_provT, provT, num_tables)
        alt_safe = np.where(has_altT, altT, num_tables)
        gidx_ext = np.concatenate(
            [gidx_blk, np.full((block, 1), scratch, dtype=np.int64)],
            axis=1)
        gpT = gidx_ext[rows, prov_safe] + lane_off[None, :]
        gaT = gidx_ext[rows, alt_safe] + lane_off[None, :]
        gbT = (pcs_blk[:, None] & base_masks[None, :]) + base_off[None, :]
        # per-table inverted index (index value -> ascending event
        # positions), built lazily on the first allocation into a table:
        # patching an allocation's later same-entry events becomes a dict
        # probe instead of a linear scan over the block's remainder
        posmaps: List[dict] = [None] * num_tables  # type: ignore

        if scl:
            lidxT = (pcs_blk[:, None] & loop_masks[None, :]) \
                + loop_off[None, :]
            ltagT = (pcs_blk[:, None] >> loop_shift[None, :]) \
                & loop_tag_mask[None, :]
            sc_rows = sc0.index_rows(folds, pcs_v, block_start, block_end)
            gscT = (sc_rows + sc_t_off)[:, None, :] \
                + sc_lane_off[None, :, None]               # (B, L, n_sc)
            pcbT = ((pcs_blk << 1) & bias_mask)[:, None] \
                + bias_off[None, :]

        preds_blk = np.empty((block, lane_count), dtype=bool)

        for i in range(block):
            tk = tk_list[i]
            gp = gpT[i]
            ga = gaT[i]
            gb = gbT[i]
            has_prov = has_provT[i]
            has_alt = has_altT[i]
            ctr_p = ctr[gp]
            ctr_a = ctr[ga]
            u = useful[gp]
            bval = base[gb]
            ppred = ctr_p >= z8
            apred = ctr_a >= z8
            alt_pred = np.where(has_alt, apred, bval >= c2_i8)
            weak = (ctr_p + c1_i8).view(np.uint8) <= c1_u8  # -1 <= c <= 0
            # a > b on booleans is a & ~b in one ufunc call
            tage_pred = np.where(has_prov > (weak & ua_nonneg),
                                 ppred, alt_pred)

            if scl:
                # loop predict
                gl = lidxT[i]
                ltag_e = ltagT[i]
                ltg = ltags[gl]
                ca = lca[gl]
                cur = lcur[gl]
                past = lpast[gl]
                dirb = ldir[gl]
                tag_ok = ltg == ltag_e
                eq = cur == past
                loop_valid = tag_ok & (ca >= c24_64)  # confidence == 3
                base_pred = np.where(loop_valid, dirb ^ eq, tage_pred)
                # corrector predict
                gsc = gscT[i]                        # (L, n_sc)
                tblv = sct[gsc]
                gbias = pcbT[i] + base_pred
                bias_v = bias[gbias]
                total = (tblv @ ones_sc) + bias_v
                total += base_pred * c8_64
                total += total
                total += cb_m8
                abs_total = np.abs(total)
                sc_pred = total >= z64
                sc_neq = sc_pred ^ base_pred
                final = np.where(sc_neq & (abs_total >= sc_thr_of[sc_state]),
                                 sc_pred, base_pred)
                preds_blk[i] = final
                # corrector update (threshold automaton first, training
                # against the post-step threshold — as the scalar does)
                adjust = sc_neq & (abs_total < sc_thr2_of[sc_state])
                sc_corr = sc_pred if tk else ~sc_pred
                sc_state = sc_step_lut[sc_state + adjust * c2_64 + sc_corr]
                wrong_f = ~final if tk else final
                train = wrong_f | (abs_total < sc_thr4_of[sc_state])
                if tk:
                    sct[gsc] = np.minimum(tblv + train[:, None], c31_2d)
                    bias[gbias] = np.minimum(bias_v + train, c31_i8)
                else:
                    sct[gsc] = np.maximum(tblv - train[:, None], cm32_2d)
                    bias[gbias] = np.maximum(bias_v - train, cm32_i8)
                # loop update: (confidence, age) through the automaton,
                # iteration counters and rare tag/direction writes outside
                agree = dirb if tk else ~dirb
                pnz = past != z64
                run_past = pnz & (cur >= past)  # cur + 1 > past
                complete = eq & pnz
                a_m = tag_ok & agree
                e_m = tag_ok ^ a_m
                mar = a_m & run_past
                out_ca = loop_lut[ca + tag_ok * c32_64 + agree * c64_64
                                  + complete * c128_64
                                  + run_past * c256_64]
                alloc_flag = out_ca & c32_64
                cur_new = cur + a_m
                zero_cur = e_m | mar
                if 32 in alloc_flag.tobytes():
                    alloc_m = alloc_flag != z64
                    out_ca = out_ca - alloc_flag
                    zero_cur = zero_cur | alloc_m
                    pz = mar | alloc_m
                    ltags[gl] = np.where(alloc_m, ltag_e, ltg)
                    ldir[gl] = np.where(alloc_m, tk, dirb)
                else:
                    pz = mar
                lca[gl] = out_ca
                np.copyto(cur_new, z64, where=zero_cur)
                lcur[gl] = cur_new
                em_nc = e_m > complete  # e_m & ~complete
                if 1 in (em_nc | pz).tobytes():
                    past_new = np.where(em_nc, cur, past)
                    np.copyto(past_new, z64, where=pz)
                    lpast[gl] = past_new
            else:
                preds_blk[i] = tage_pred

            # TAGE update (uses TAGE's own prediction, not the composite)
            tage_wrong = ~tage_pred if tk else tage_pred
            diff = ppred ^ alt_pred
            ua_train = weak & diff & has_prov
            if 1 in ua_train.tobytes():
                alt_corr = alt_pred if tk else ~alt_pred
                use_alt = ua_lut[use_alt + ua_train * c2_64 + alt_corr]
                ua_nonneg = use_alt >= c32_64
            corr_p = ppred if tk else ~ppred
            active = diff & has_prov
            u3 = u_lut[u_lane_off + u * c4_64 + active * c2_64 + corr_p]
            useful[gp] = u3
            unreliable = has_prov & (u3 == z64)
            upd_alt = unreliable & has_alt
            upd_base = (unreliable ^ upd_alt) | not_provT[i]
            if tk:
                ctr[gp] = np.minimum(ctr_p + c1_i8, ctr_max)
                ctr[ga] = np.minimum(ctr_a + upd_alt, ctr_max)
                base[gb] = np.minimum(bval + upd_base, c3_i8)
            else:
                ctr[gp] = np.maximum(ctr_p - c1_i8, ctr_min)
                ctr[ga] = np.maximum(ctr_a - upd_alt, ctr_min)
                base[gb] = np.maximum(bval - upd_base, z8)

            do_alloc = tage_wrong & can_allocT[i]
            if 1 in do_alloc.tobytes():
                lanes_a = np.nonzero(do_alloc)[0].tolist()
                idx_row_l = idx_blk[i].tolist()
                tag_row_l = tag_blk[i].tolist()
                gidx_row_l = gidx_blk[i].tolist()
                prov_col = provT[i].tolist()
                # one gather covers every allocating lane's useful row;
                # candidate scans then run on plain Python lists
                u_mat = useful[
                    np.asarray([lane_off_list[lane] for lane in lanes_a],
                               dtype=np.int64)[:, None]
                    + gidx_blk[i]].tolist()
                alloc_ctr = 0 if tk else -1
                for u_row, lane in zip(u_mat, lanes_a):
                    off = lane_off_list[lane]
                    provider = prov_col[lane]
                    candidates = [t for t in range(provider + 1,
                                                   num_tables)
                                  if not u_row[t]]
                    if not candidates:
                        for t in range(provider + 1, num_tables):
                            uv = u_row[t]
                            if uv:
                                useful[off + gidx_row_l[t]] = uv - 1
                        continue
                    chosen = candidates[0]
                    lfsr = lfsrs[lane]
                    for t in candidates:
                        if lfsr.bits(1) == 0:
                            chosen = t
                            break
                    entry = gidx_row_l[chosen]
                    new_tag = tag_row_l[chosen]
                    tags[lane, entry] = new_tag
                    ctr[off + entry] = alloc_ctr
                    useful[off + entry] = 0
                    # patch this lane's later events in the block whose
                    # (table, index) hits the entry we just rewrote
                    posmap = posmaps[chosen]
                    if posmap is None:
                        posmap = {}
                        for j, value in enumerate(
                                idx_blk[:, chosen].tolist()):
                            hits = posmap.get(value)
                            if hits is None:
                                posmap[value] = [j]
                            else:
                                hits.append(j)
                        posmaps[chosen] = posmap
                    positions = posmap.get(idx_row_l[chosen])
                    if positions is None or positions[-1] <= i:
                        continue
                    bit = 1 << chosen
                    for j in positions[bisect_right(positions, i):]:
                        bits = int(match_bits[lane, j])
                        if bool(bits & bit) == \
                                (tag_blk[j, chosen] == new_tag):
                            continue
                        bits ^= bit
                        match_bits[lane, j] = bits
                        provider_j = bits.bit_length() - 1
                        alt_j = (bits ^ (1 << provider_j)) \
                            .bit_length() - 1 if bits else -1
                        provT[j, lane] = provider_j
                        has_provT[j, lane] = provider_j >= 0
                        not_provT[j, lane] = provider_j < 0
                        has_altT[j, lane] = alt_j >= 0
                        can_allocT[j, lane] = provider_j < last_table
                        gpT[j, lane] = off + (
                            gidx_blk[j, provider_j]
                            if provider_j >= 0 else scratch)
                        gaT[j, lane] = off + (
                            gidx_blk[j, alt_j] if alt_j >= 0 else scratch)

            tick += 1
            if tick == next_due:
                for lane in lane_range:
                    if next_reset[lane] == tick:
                        phase = (tick // periods[lane]) & 1
                        slab = useful[lane_off_list[lane]:
                                      lane_off_list[lane] + scratch]
                        slab &= 1 if phase else 0xFE
                        next_reset[lane] = tick + periods[lane]
                next_due = min(next_reset)

        # collect this block's measured mispredicts, in stream order
        if block_end > split:
            first = max(split - block_start, 0)
            wrong = np.ascontiguousarray(
                (preds_blk[first:]
                 != taken_v[block_start + first:block_end][:, None]).T)
            for lane in lane_range:
                positions = np.nonzero(wrong[lane])[0]
                if positions.size:
                    append = appends[lane]
                    for position in positions.tolist():
                        append(pcs_list[first + position])
    return lanes_out
