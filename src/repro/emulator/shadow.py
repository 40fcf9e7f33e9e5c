"""Wrong-path (shadow) execution.

The merge-point predictor (§4.4) learns from instructions fetched down the
*wrong* path of a mispredicted branch.  In an execution-driven simulator the
wrong path is not free — it must be produced by actually executing the wrong
direction of the branch on a private copy of architectural state.  The walk
uses a register-file copy and an :class:`~repro.emulator.memory.OverlayMemory`
so wrong-path stores never corrupt the committed image.
"""

from __future__ import annotations

from typing import List

from repro.emulator.machine import execute_uop
from repro.emulator.memory import Memory, OverlayMemory
from repro.emulator.trace import DynamicUop
from repro.isa import uop as U
from repro.isa.program import Program


def wrong_path_walk(program: Program, regs: List[int], memory: Memory,
                    branch_pc: int, wrong_taken: bool,
                    max_uops: int) -> List[DynamicUop]:
    """Execute the wrong direction of a branch for up to ``max_uops``.

    ``regs``/``memory`` are the architectural state *just before* the branch
    executes (CC already set, since CC is written by an older compare).
    ``wrong_taken`` is the direction the branch did NOT actually go.  Returns
    the wrong-path records in fetch order, starting with the first uop after
    the branch (``seq`` is left unstamped).  The walk stops early at HALT, if
    it would leave the program, or before it re-fetches ``branch_pc``: every
    consumer (merge-point training, the oracle) stops at a second instance
    of the branch, so nothing past it is ever read.
    """
    branch_uop = program.uops[branch_pc]
    shadow_regs = list(regs)
    shadow_memory = OverlayMemory(memory)

    if branch_uop.opcode == U.BR:
        pc = branch_uop.target if wrong_taken else branch_pc + 1
    else:
        raise ValueError("wrong_path_walk requires a conditional branch")

    observed: List[DynamicUop] = []
    uops = program.uops
    program_len = len(uops)
    for _ in range(max_uops):
        if pc == branch_pc or not 0 <= pc < program_len:
            break
        op = uops[pc]
        if op.opcode == U.HALT:
            break
        run = op.execute
        if run is not None:
            record = run(shadow_regs, shadow_memory)
        else:
            record = execute_uop(op, shadow_regs, shadow_memory)
        observed.append(record)
        pc = record.next_pc
    return observed
