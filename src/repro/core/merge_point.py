"""Dynamic merge-point prediction (§4.4).

On a branch misprediction the ROB holds wrong-path instructions; a forward
ROB walk copies their PCs (plus a running destination-register set and a
bloom filter of store addresses) into the Wrong Path Buffer.  As correct
path instructions retire they probe the WPB — the first hit is the predicted
merge point.  The hitting entry's wrong-path dest set ORed with the
accumulated correct-path dest set forms the *both-path dest set* that seeds
affector detection (:mod:`repro.core.poison`).

Branches observed on either path before the merge point are *guarded* by the
mispredicted branch.

A static code-layout predictor (backward branch → fall-through, forward
branch → target; the assumption of prior work [10, 11]) is included as the
accuracy baseline, and an oracle (long shadow walk vs actual retirement)
scores both.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import BranchRunaheadConfig
from repro.emulator.trace import DynamicUop
from repro.isa.registers import reg_bit
from repro.isa.uop import Uop


class BloomFilter:
    """Small hardware-style bloom filter for wrong-path store addresses."""

    def __init__(self, bits: int = 256):
        self.num_bits = bits
        self._bits = 0

    def _hashes(self, value: int) -> Tuple[int, int]:
        h1 = (value * 2654435761) % self.num_bits
        h2 = (value ^ (value >> 7)) * 40503 % self.num_bits
        return h1, h2

    def add(self, value: int) -> None:
        h1, h2 = self._hashes(value)
        self._bits |= (1 << h1) | (1 << h2)

    def contains(self, value: int) -> bool:
        h1, h2 = self._hashes(value)
        mask = (1 << h1) | (1 << h2)
        return self._bits & mask == mask

    def clear(self) -> None:
        self._bits = 0


class WrongPathBuffer:
    """128-entry 4-way cache of wrong-path PCs with per-entry dest sets."""

    def __init__(self, entries: int = 128, ways: int = 4):
        self.ways = ways
        self.num_sets = max(1, entries // ways)
        self._sets: List[Dict[int, int]] = [dict() for _ in
                                            range(self.num_sets)]
        self.valid = False

    def _set_for(self, pc: int) -> Dict[int, int]:
        return self._sets[pc % self.num_sets]

    def insert(self, pc: int, dest_mask: int) -> None:
        entry_set = self._set_for(pc)
        if pc in entry_set:
            # keep the first occurrence: the merge happens at the earliest
            # wrong-path visit, so its dest set must not grow with later
            # loop iterations of the walk
            return
        if len(entry_set) >= self.ways:
            oldest = next(iter(entry_set))
            del entry_set[oldest]
        entry_set[pc] = dest_mask

    def probe(self, pc: int) -> Optional[int]:
        """Return the wrong-path dest set accumulated up to ``pc``, if hit."""
        if not self.valid:
            return None
        return self._set_for(pc).get(pc)

    def invalidate(self) -> None:
        for entry_set in self._sets:
            entry_set.clear()
        self.valid = False


class MergeResult:
    """Everything learned when a merge point is found."""

    def __init__(self, branch_pc: int, merge_pc: int, both_path_dest_mask: int,
                 wrong_path_stores: BloomFilter,
                 correct_path_stores: Set[int],
                 guarded_branches: Set[int]):
        self.branch_pc = branch_pc
        self.merge_pc = merge_pc
        self.both_path_dest_mask = both_path_dest_mask
        self.wrong_path_stores = wrong_path_stores
        self.correct_path_stores = correct_path_stores
        #: Branches observed before the merge on either path (pre bias filter).
        self.guarded_branches = guarded_branches


def static_merge_prediction(branch_uop: Uop) -> int:
    """Prior work's code-layout heuristic (the ~78% baseline [29])."""
    if branch_uop.target <= branch_uop.pc:
        return branch_uop.pc + 1  # backward branch: loop; merge at fall-through
    return branch_uop.target      # forward branch: if-then; merge at target


class MergePointPredictor:
    """The WPB-based dynamic merge point predictor."""

    def __init__(self, config: Optional[BranchRunaheadConfig] = None):
        self.config = config or BranchRunaheadConfig()
        self.wpb = WrongPathBuffer(self.config.wpb_entries,
                                   self.config.wpb_ways)
        # active search state
        self._branch_pc = -1
        self._branch_uop: Optional[Uop] = None
        self._trigger_seq = -1
        self._distance = 0
        self._cp_dest_mask = 0
        self._cp_stores: Set[int] = set()
        self._wp_stores = BloomFilter()
        self._cp_guards: Set[int] = set()
        self._wp_branch_order: Dict[int, int] = {}
        self._wp_pc_order: Dict[int, int] = {}
        # accuracy bookkeeping (scored externally against the oracle)
        self.searches = 0
        self.merges_found = 0
        self.searches_failed = 0

    @property
    def active(self) -> bool:
        return self._branch_pc >= 0

    # -- training -------------------------------------------------------------

    def train_on_mispredict(self, record: DynamicUop,
                            shadow_uops: List[DynamicUop]) -> None:
        """Fill the WPB from the forward ROB walk of wrong-path uops.

        The walk stops early if a second dynamic instance of the branch is
        found on the wrong path (loop case) — everything up to it is copied.
        """
        self.wpb.invalidate()
        self.searches += 1
        running_mask = 0
        self._wp_stores = BloomFilter()
        self._cp_guards = set()
        self._wp_branch_order = {}
        self._wp_pc_order = {}
        copied = 0
        for shadow in shadow_uops:
            if copied >= self.config.max_merge_distance:
                break
            pc = shadow.pc
            if pc == record.pc:
                break  # second instance: we are in a loop
            op = shadow.uop
            if op.is_cond_branch and pc not in self._wp_branch_order:
                self._wp_branch_order[pc] = copied
            if pc not in self._wp_pc_order:
                self._wp_pc_order[pc] = copied
            # the entry's dest set covers uops strictly *before* it: a merge
            # instruction executes on both paths, so its own writes are not
            # divergent state
            self.wpb.insert(pc, running_mask)
            for dst in op.dst_regs:
                running_mask |= reg_bit(dst)
            if op.is_store and shadow.addr >= 0:
                self._wp_stores.add(shadow.addr)
            copied += 1
        self.wpb.valid = copied > 0
        self._branch_pc = record.pc
        self._branch_uop = record.uop
        self._trigger_seq = record.seq
        self._distance = 0
        self._cp_dest_mask = 0
        self._cp_stores = set()

    # -- correct-path probing ----------------------------------------------------

    def on_retire(self, record: DynamicUop) -> Optional[MergeResult]:
        """Probe with a retired correct-path uop; MergeResult when found."""
        if not self.active:
            return None
        pc = record.pc
        if record.seq == self._trigger_seq:
            return None  # the mispredicted branch's own retirement
        if pc == self._branch_pc:
            # second correct-path instance before any merge: give up
            self._abort()
            return None
        wp_mask = self.wpb.probe(pc)
        if wp_mask is not None:
            # guards: branches observed before the merge point on either path
            merge_order = self._wp_pc_order.get(pc, 1 << 30)
            wp_guards = {branch_pc for branch_pc, order
                         in self._wp_branch_order.items()
                         if order < merge_order}
            result = MergeResult(
                branch_pc=self._branch_pc,
                merge_pc=pc,
                both_path_dest_mask=wp_mask | self._cp_dest_mask,
                wrong_path_stores=self._wp_stores,
                correct_path_stores=set(self._cp_stores),
                guarded_branches=wp_guards | self._cp_guards,
            )
            self.merges_found += 1
            self._deactivate()
            return result
        self._distance += 1
        if self._distance > self.config.max_merge_distance:
            self._abort()
            return None
        op = record.uop
        for dst in op.dst_regs:
            self._cp_dest_mask |= reg_bit(dst)
        if op.is_store:
            self._cp_stores.add(record.addr)
        if op.is_cond_branch:
            self._cp_guards.add(pc)
        return None

    def _abort(self) -> None:
        self.searches_failed += 1
        self._deactivate()

    def _deactivate(self) -> None:
        self._branch_pc = -1
        self._branch_uop = None
        self.wpb.invalidate()


class OracleMergeTracker:
    """Scores merge predictions against ground truth.

    The oracle merge point of a misprediction is the first PC fetched on the
    wrong path that the correct path also reaches.  The caller supplies a
    *long* wrong-path walk (not budget-limited) at the mispredict and then
    feeds retired PCs; the tracker resolves the oracle lazily and scores any
    registered predictions.
    """

    def __init__(self, max_distance: int = 512):
        self.max_distance = max_distance
        self._wp_order: Dict[int, int] = {}
        self._active = False
        self._trigger_seq = -1
        self._distance = 0
        self._dynamic_prediction: Optional[int] = None
        self._static_prediction: Optional[int] = None
        self.resolved = 0
        self.dynamic_correct = 0
        self.static_correct = 0
        self.dynamic_predictions = 0
        self.static_predictions = 0

    def start(self, record: DynamicUop, shadow_uops: List[DynamicUop],
              static_prediction: int) -> None:
        self._wp_order = {}
        for order, shadow in enumerate(shadow_uops[:self.max_distance]):
            if shadow.pc == record.pc:
                break  # second wrong-path instance: the walk is in a loop
            if shadow.pc not in self._wp_order:
                self._wp_order[shadow.pc] = order
        self._active = True
        self._trigger_seq = record.seq
        self._distance = 0
        self._dynamic_prediction = None
        self._static_prediction = static_prediction

    def register_dynamic(self, merge_pc: int) -> None:
        """The dynamic predictor produced ``merge_pc`` for the open search."""
        if self._active:
            self._dynamic_prediction = merge_pc

    def on_retire(self, record: DynamicUop) -> None:
        if not self._active:
            return
        if record.seq == self._trigger_seq:
            return
        pc = record.pc
        if pc in self._wp_order:
            # ground truth resolved; a search that produced no prediction
            # by now counts as a miss (accuracy includes coverage)
            self.resolved += 1
            self.dynamic_predictions += 1
            if self._dynamic_prediction == pc:
                self.dynamic_correct += 1
            if self._static_prediction is not None:
                self.static_predictions += 1
                if self._static_prediction == pc:
                    self.static_correct += 1
            self._active = False
            return
        self._distance += 1
        if self._distance > self.max_distance:
            self._active = False

    def dynamic_accuracy(self) -> float:
        if not self.dynamic_predictions:
            return 0.0
        return self.dynamic_correct / self.dynamic_predictions

    def static_accuracy(self) -> float:
        if not self.static_predictions:
            return 0.0
        return self.static_correct / self.static_predictions
