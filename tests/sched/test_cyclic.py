"""Cyclic code motion (Sec. 5.2)."""

import pytest

from repro.ir.interp import Interpreter, initial_registers
from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.workloads.samples import fig5_cyclic_sample


@pytest.fixture(scope="module")
def fig5_with():
    fn = parse_function(fig5_cyclic_sample())
    return optimize_function(fn, ScheduleFeatures(time_limit=60))


@pytest.fixture(scope="module")
def fig5_without():
    fn = parse_function(fig5_cyclic_sample())
    return optimize_function(fn, ScheduleFeatures(time_limit=60, cyclic=False))


def test_cyclic_improves_loop(fig5_with, fig5_without):
    assert fig5_with.verification.ok
    assert fig5_without.verification.ok
    assert fig5_with.weighted_length_out < fig5_without.weighted_length_out


def test_latch_copy_present(fig5_with):
    schedule = fig5_with.output_schedule
    loop_len = schedule.block_length("LOOP")
    # The cyclically moved add r20 sits both above the loop and in the
    # final (latch) cycle of the loop body.
    def copies(block):
        return [
            p
            for p in schedule.placements()
            if p.block == block
            and p.instr.mnemonic == "add"
            and not p.instr.is_branch
        ]

    pre_mnemonics = [p.instr.mnemonic for p in copies("PRE")]
    assert "add" in pre_mnemonics
    last_group = schedule.group("LOOP", loop_len)
    assert any(i.mnemonic == "add" for i in last_group)


def test_loop_variant_never_escapes_without_latch_copy(fig5_without):
    """With cyclic off, the address add must stay inside the loop."""
    schedule = fig5_without.output_schedule
    fn = fig5_without.fn
    loop_instrs = list(schedule.instructions_in("LOOP"))
    # The load's address producer is in the loop.
    loads = [i for i in loop_instrs if i.is_load]
    assert loads, "load must remain in the loop"
    base = loads[0].mem.base
    producers = [
        i for i in loop_instrs if base in i.regs_written() and not i.is_load
    ]
    assert producers, "address producer must stay in the loop without cyclic"


def test_cyclic_requires_multiply_executable():
    # Self-overlapping update (adds r15 = 8, r15) is not multiply
    # executable; the loop cannot be shortened by moving it cyclically.
    text = """
.proc selfinc
.livein r32
.liveout r8
.block PRE freq=1
  add r15 = r32, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  adds r15 = 8, r15
  cmp.ne p6, p7 = r15, r0
  (p6) br.cond LOOP
.block POST freq=1
  add r8 = r15, 0
  br.ret b0
.endp
"""
    fn = parse_function(text)
    res = optimize_function(fn, ScheduleFeatures(time_limit=30))
    assert res.verification.ok
    # The update stays put.
    placements = [
        p for p in res.output_schedule.placements() if p.instr.mnemonic == "adds"
    ]
    assert placements and all(p.block == "LOOP" for p in placements)


def test_latch_copy_waits_for_in_loop_reader():
    """The latch copy computes the next iteration's value, so an in-loop
    reader of the current value (the latch's store) must not follow it."""
    text = """
.proc latchread
.livein r34, r39
.liveout r8, r44
.block B0 freq=1000
  mov r9 = 0
.block B1 freq=15000
  shladd r41 = r39, r34
  add r42 = r41, r34
  shladd r43 = r42, r42
  cmp.ge p16, p17 = r9, 15
  (p16) br.cond B3
.block B2 freq=14000
  st8 [r39+16] = r41 cls=glob
  adds r34 = r34, 8
  adds r9 = r9, 1
  br B1
.block B3 freq=1000
  shr.u r44 = r41, 6
  add r8 = r43, r42
  br.ret b0
.endp
"""
    res = optimize_function(
        parse_function(text), ScheduleFeatures(time_limit=30, max_hops=3)
    )
    assert res.verification.ok
    schedule = res.output_schedule
    latch = {p.instr.mnemonic: p for p in schedule.placements() if p.block == "B2"}
    # The motion is still taken: shladd r41 has a copy in the latch. The
    # store there must still see this iteration's r41.
    assert "shladd" in latch
    interp = Interpreter(max_blocks=600)
    for seed in (0, 5):
        registers = initial_registers(res.fn, seed)
        want = interp.run_function(res.fn, registers, seed=seed)
        got = interp.run_schedule(schedule, res.fn, registers, seed=seed)
        assert got.memory == want.memory
        assert got.live_out_state(res.fn) == want.live_out_state(res.fn)


def test_post_loop_spec_load_stays_below_cyclic_loop():
    """A post-loop consumer of a cyclically moved value stays below the
    loop in its ld.s form too: above it, it reads the pre-loop copy's
    value instead of the last latch copy's."""
    text = """
.proc cycspec
.livein r34, r36, r38, r39
.liveout r8, r45
.block B0 freq=1000
  dep.z r40 = r36, 3
  mov r9 = 0
.block B1 freq=7000
  sub r44 = r43, r39
  ld8 r43 = [r40+8] cls=stack
  extr.u r45 = r44, 7
  cmp.ge p18, p19 = r9, 7
  (p18) br.cond B3
.block B2 freq=6000
  and r46 = r43, r38
  st8 [r36+8] = r45 cls=heap
  adds r9 = r9, 1
  br B1
.block B3 freq=1000
  ld8 r48 = [r44] cls=stack
  and r50 = r48, r48
  adds r8 = r50, 30
  br.ret b0
.endp
"""
    res = optimize_function(
        parse_function(text), ScheduleFeatures(time_limit=30, max_hops=3)
    )
    assert res.verification.ok
    schedule = res.output_schedule
    subs = [p.block for p in schedule.placements() if p.instr.mnemonic == "sub"]
    assert sorted(subs) == ["B0", "B2"]  # cyclically moved
    loads = [
        p.block for p in schedule.placements()
        if p.instr.is_load and "r48" in map(str, p.instr.regs_written())
    ]
    assert loads == ["B3"]
    interp = Interpreter(max_blocks=600)
    for seed in (0, 5):
        registers = initial_registers(res.fn, seed)
        want = interp.run_function(res.fn, registers, seed=seed)
        got = interp.run_schedule(schedule, res.fn, registers, seed=seed)
        assert got.live_out_state(res.fn) == want.live_out_state(res.fn)
