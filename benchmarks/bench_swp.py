"""Software-pipelining bench: the future-work extension, quantified.

For loop kernels the three treatments form a strict quality ladder:

    plain global scheduling  >=  + cyclic motion (Sec. 5.2)  >=  modulo II

This bench regenerates that ladder for the Fig. 5 loop and two synthetic
loop kernels, asserting the ordering and that II matches the max of the
analytic bounds (ResMII, RecMII) — i.e. the ILP proves optimality.

Run:  pytest benchmarks/bench_swp.py --benchmark-only -q
"""

import pytest

from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.sched.scheduler import ScheduleFeatures, optimize_function
from repro.sched.modulo import modulo_schedule
from repro.workloads.samples import fig5_cyclic_sample

WIDE_LOOP = """
.proc wide_loop
.livein r32, r33
.liveout r8
.block PRE freq=1
  add r15 = r32, 0
.block LOOP freq=1000 succ=LOOP:0.95,POST:0.05
  ld8 r20 = [r15] cls=heap
  ld8 r21 = [r15+8] cls=heap
  add r22 = r20, r21
  xor r23 = r22, r33
  and r24 = r23, r20
  or r25 = r24, r21
  adds r15 = 16, r15
  cmp.ne p6, p7 = r25, r0
  (p6) br.cond LOOP
.block POST freq=1
  add r8 = r22, 0
  br.ret b0
.endp
"""

RECURRENCE_LOOP = """
.proc rec_loop
.livein r32
.liveout r8
.block PRE freq=1
  add r15 = r32, 0
.block LOOP freq=1000 succ=LOOP:0.9,POST:0.1
  ld8 r20 = [r15] cls=heap
  add r15 = r20, r32
  xor r21 = r20, r32
  and r22 = r21, r20
  cmp.ne p6, p7 = r22, r0
  (p6) br.cond LOOP
.block POST freq=1
  add r8 = r15, 0
  br.ret b0
.endp
"""

CASES = {
    "fig5": fig5_cyclic_sample(),
    "wide": WIDE_LOOP,
    "recurrence": RECURRENCE_LOOP,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_swp_ladder(benchmark, case):
    text = CASES[case]

    def ladder():
        plain = optimize_function(
            parse_function(text), ScheduleFeatures(time_limit=60, cyclic=False)
        )
        cyclic = optimize_function(
            parse_function(text), ScheduleFeatures(time_limit=60)
        )
        fn = parse_function(text)
        cfg = CfgInfo(fn)
        ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
        swp = modulo_schedule(fn, ddg, cfg.loops[0])
        return (
            plain.output_schedule.block_length("LOOP"),
            cyclic.output_schedule.block_length("LOOP"),
            swp,
        )

    plain_len, cyclic_len, swp = benchmark.pedantic(
        ladder, rounds=1, iterations=1
    )
    print(
        f"\n{case}: plain={plain_len} cyclic={cyclic_len} II={swp.ii} "
        f"(ResMII={swp.mii_resource}, RecMII={swp.mii_recurrence}, "
        f"stages={swp.stages})"
    )
    assert cyclic_len <= plain_len
    assert swp.ii <= cyclic_len
    assert swp.ii == max(swp.mii_resource, swp.mii_recurrence)
