"""Materialization scope gating: unfit loops return None, never bad code."""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.modulo.ladder import modulo_schedule
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)


def _pipeline(text):
    fn = parse_function(text)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return fn, cfg, ddg


def _counted(trips, extra_use_of_counter=False):
    use = "  add r30 = r9, r32\n" if extra_use_of_counter else ""
    return f"""
.proc scope
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r20 = r15, r33
  ld8 r21 = [r20] cls=heap
  add r15 = r21, r32
  xor r23 = r21, r33
  and r24 = r23, r21
  or r25 = r24, r23
{use}  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, {trips}
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r15, 0
  br.ret b0
.endp
"""


def test_too_few_trips_fully_unrolled():
    # Trip counts below the pipeline depth cannot complete a kernel
    # pass; the materializer fully unrolls instead of pipelining, and
    # the unrolled routine must be loop-free yet execute identically.
    fn, cfg, ddg = _pipeline(_counted(1))
    loop = cfg.loops[0]
    msched = modulo_schedule(fn, ddg, loop)
    out = materialize_counted_loop(fn, cfg, ddg, loop, msched)
    assert out is not None
    assert not CfgInfo(out).loops
    from repro.ir.interp import Interpreter, initial_registers

    interp = Interpreter(max_blocks=1000)
    registers = initial_registers(fn, 4)
    want = interp.run_function(fn, registers, seed=4)
    got = interp.run_function(out, registers, seed=4)
    assert want.returned and got.returned
    assert got.live_out_state(out) == want.live_out_state(fn)
    assert got.memory == want.memory


def test_counter_with_data_use_rejected():
    fn, cfg, ddg = _pipeline(_counted(12, extra_use_of_counter=True))
    loop = cfg.loops[0]
    assert recognize_counted_loop(fn, loop) is None


def test_ample_trips_materialize():
    fn, cfg, ddg = _pipeline(_counted(12))
    loop = cfg.loops[0]
    msched = modulo_schedule(fn, ddg, loop)
    out = materialize_counted_loop(fn, cfg, ddg, loop, msched)
    assert out is not None
    from repro.ir.interp import Interpreter, initial_registers

    interp = Interpreter(max_blocks=1000)
    registers = initial_registers(fn, 9)
    want = interp.run_function(fn, registers, seed=9)
    got = interp.run_function(out, registers, seed=9)
    assert want.returned and got.returned
    assert got.live_out_state(out) == want.live_out_state(fn)
    assert got.memory == want.memory


def test_non_lt_compare_rejected():
    text = _counted(12).replace("cmp.lt p16", "cmp.ne p16")
    fn, cfg, ddg = _pipeline(text)
    assert recognize_counted_loop(fn, cfg.loops[0]) is None
