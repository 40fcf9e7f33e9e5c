"""Tests for the shortened wrong-path walk.

``wrong_path_walk`` ends before it would re-fetch the mispredicted
branch's own PC, because both of its consumers — merge-point training
(``MergePointPredictor.train_on_mispredict``) and the merge oracle
(``OracleMergeTracker.start``) — stop reading there.  These tests hold
the shortened walk to a full-budget reference walk built here with the
reference interpreter ``execute_uop``: training on either must leave the
Wrong Path Buffer and the oracle in the same state.
"""

import pytest

import repro.core.runahead as runahead_module
from repro.core import config as br_config
from repro.core.merge_point import MergePointPredictor, OracleMergeTracker
from repro.emulator.machine import Machine, execute_uop
from repro.emulator.memory import OverlayMemory
from repro.emulator.shadow import wrong_path_walk
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import ProgramBuilder
from repro.sim.simulator import simulate
from repro.workloads import registry, suite

#: Mispredicts checked per benchmark (the first ones of the region).
MISPREDICTS = 12


def reference_walk(program, regs, memory, branch_pc, wrong_taken, max_uops):
    """The walk without the early stop: ``max_uops`` records or HALT."""
    uops = program.uops
    branch = uops[branch_pc]
    pc = branch.target if wrong_taken else branch_pc + 1
    shadow_regs = list(regs)
    shadow_memory = OverlayMemory(memory)
    records = []
    for _ in range(max_uops):
        if not 0 <= pc < len(uops) or uops[pc].opcode == U.HALT:
            break
        record = execute_uop(uops[pc], shadow_regs, shadow_memory)
        records.append(record)
        pc = record.next_pc
    return records


def trained_state(config, record, walk):
    predictor = MergePointPredictor(config)
    predictor.train_on_mispredict(record, walk)
    wpb = predictor.wpb
    return (wpb.valid, [list(entry_set.items()) for entry_set in wpb._sets],
            predictor._wp_stores._bits, predictor._wp_branch_order,
            predictor._wp_pc_order, predictor._branch_pc,
            predictor._trigger_seq)


def oracle_state(record, walk):
    oracle = OracleMergeTracker()
    oracle.start(record, walk, -1)
    return (oracle._wp_order, oracle._active, oracle._trigger_seq)


def check_against_reference(config, program, regs, memory, branch_pc,
                            wrong_taken, max_uops):
    """Run both walks from the same state; return how much was cut."""
    walk = wrong_path_walk(program, regs, memory, branch_pc, wrong_taken,
                           max_uops)
    reference = reference_walk(program, regs, memory, branch_pc,
                               wrong_taken, max_uops)
    assert all(record.pc != branch_pc for record in walk)
    assert [(r.pc, r.taken, r.addr, r.dst_value) for r in walk] == \
        [(r.pc, r.taken, r.addr, r.dst_value)
         for r in reference[:len(walk)]]
    record = DynamicUop(program.uops[branch_pc], 0, 0,
                        taken=not wrong_taken)
    assert trained_state(config, record, walk) == \
        trained_state(config, record, reference)
    assert oracle_state(record, walk) == oracle_state(record, reference)
    return len(reference) - len(walk)


@pytest.mark.parametrize(
    "name", [benchmark.name for benchmark in registry.all_benchmarks()])
def test_first_mispredicts_train_like_the_full_walk(name, monkeypatch):
    config = br_config.mini()
    checked = []

    def checking_walk(program, regs, memory, branch_pc, wrong_taken,
                      max_uops):
        if len(checked) < MISPREDICTS:
            checked.append(check_against_reference(
                config, program, regs, memory, branch_pc, wrong_taken,
                max_uops))
        return wrong_path_walk(program, regs, memory, branch_pc,
                               wrong_taken, max_uops)

    monkeypatch.setattr(runahead_module, "wrong_path_walk", checking_walk)
    simulate(suite.load(name), instructions=1_500, warmup=500,
             br_config=config, track_merge_oracle=True)
    assert checked, "the region produced no mispredict to check"
    assert any(checked), "no walk reached the branch again: nothing cut"


def test_walk_stops_before_the_branch_comes_around_again():
    b = ProgramBuilder()
    data = b.data("data", [0, 1] * 64)
    datar, x, v = b.regs("data", "x", "v")
    b.movi(datar, data)
    b.movi(x, 0)
    b.label("loop")
    b.addi(x, x, 1)            # 2
    b.andi(x, x, 127)          # 3
    b.ld(v, base=datar, index=x)
    b.st(x, base=datar, index=x)
    b.cmpi(v, 0)
    b.br("ne", "loop")         # 7: both directions come back here
    b.jmp("loop")
    program = b.build()
    branch_pc = 7
    assert program.uops[branch_pc].is_cond_branch
    machine = Machine(program)
    while machine.pc != branch_pc:
        machine.step()
    regs = list(machine.regs)
    walk = wrong_path_walk(program, regs, machine.memory, branch_pc,
                           True, 50)
    assert [record.pc for record in walk] == [2, 3, 4, 5, 6]
    assert walk[3].addr >= 0 and walk[3].uop.is_store
    cut = check_against_reference(br_config.mini(), program, regs,
                                  machine.memory, branch_pc, True, 50)
    assert cut == 45
