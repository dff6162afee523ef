"""Software-pipelining code generation (modulo variable expansion)."""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.interp import Interpreter, initial_registers
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.modulo.ladder import modulo_schedule
from repro.sched.swp_materialize import (
    materialize_counted_loop,
    recognize_counted_loop,
)

COUNTED_LOOP = """
.proc counted
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  add r20 = r15, r33
  ld8 r21 = [r20] cls=heap
  add r15 = r21, r32
  xor r23 = r21, r33
  and r24 = r23, r21
  or r25 = r24, r23
  st8 [r33+8] = r25 cls=glob
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 13
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r15, 0
  br.ret b0
.endp
"""


def _pipeline(text):
    fn = parse_function(text)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return fn, cfg, ddg


@pytest.fixture(scope="module")
def materialized():
    fn, cfg, ddg = _pipeline(COUNTED_LOOP)
    loop = cfg.loops[0]
    msched = modulo_schedule(fn, ddg, loop)
    out = materialize_counted_loop(fn, cfg, ddg, loop, msched)
    assert out is not None
    return fn, out, msched


def test_recognizer_matches_counted_pattern():
    fn, cfg, _ddg = _pipeline(COUNTED_LOOP)
    counted = recognize_counted_loop(fn, cfg.loops[0])
    assert counted is not None
    assert counted.trips == 13
    assert counted.counter.name == "r9"


def test_recognizer_rejects_uncounted():
    from repro.workloads.samples import fig5_cyclic_sample

    fn, cfg, _ddg = _pipeline(fig5_cyclic_sample())
    assert recognize_counted_loop(fn, cfg.loops[0]) is None


def test_structure(materialized):
    _fn, out, _msched = materialized
    names = [b.name for b in out.blocks]
    assert "LOOP__pro" in names and "LOOP__ker" in names and "LOOP__epi" in names
    kernel = out.block("LOOP__ker")
    assert kernel.terminator.target == "LOOP__ker"
    out.validate()


def test_semantics_preserved(materialized):
    fn, out, _msched = materialized
    interp = Interpreter(max_blocks=2000)
    for seed in (0, 1, 2, 3):
        registers = initial_registers(fn, seed)
        want = interp.run_function(fn, registers, seed=seed)
        got = interp.run_function(out, registers, seed=seed)
        assert want.returned and got.returned
        assert got.live_out_state(out) == want.live_out_state(fn)
        assert got.memory == want.memory


def test_kernel_executes_u_iterations_per_pass(materialized):
    fn, out, msched = materialized
    interp = Interpreter(max_blocks=2000)
    result = interp.run_function(out, initial_registers(fn, 0))
    kernel_passes = result.block_trace.count("LOOP__ker")
    original = interp.run_function(fn, initial_registers(fn, 0))
    loop_iterations = original.block_trace.count("LOOP")
    assert kernel_passes >= 1
    assert kernel_passes < loop_iterations  # overlap compresses control


def test_throughput_improves(materialized):
    """The pipelined version retires the loop in fewer instruction slots
    of critical path: its kernel II is below the acyclic body length."""
    fn, _out, msched = materialized
    assert msched.ii < 13  # sanity
    assert msched.ii == max(msched.mii_resource, msched.mii_recurrence)
