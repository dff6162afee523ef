"""The modulo-scheduling subsystem: bounds, formulation, ladder, oracle.

Covers the three layers of :mod:`repro.sched.modulo` separately —
closed-form lower bounds, the (row one-hot, integer stage) ILP, and the
II ladder with its §8 degradation contract — plus the hypothesis
property that a materialized pipeline is execution-equivalent to its
source loop for arbitrary trip counts.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ilp import Model, SolveStatus, lin_sum, solve_model
from repro.ir.cfg import CfgInfo
from repro.ir.ddg import build_dependence_graph
from repro.ir.interp import Interpreter, initial_registers
from repro.ir.liveness import compute_liveness
from repro.ir.parser import parse_function
from repro.machine.itanium2 import ITANIUM2
from repro.machine.units import UnitKind
from repro.sched.modulo.bounds import (
    critical_path,
    has_positive_cycle,
    recurrence_mii,
    resource_mii,
)
from repro.sched.modulo.formulation import ModuloIlp
from repro.obs.core import Trace
from repro.sched.modulo.ladder import LoopPipelineOutcome, pipeline_loop
from repro.sched.swp import body_instructions, build_modulo_edges
from repro.tools import faults
from repro.tools.deadline import Deadline
from repro.workloads.generator import loop_dominated_family

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

TIGHT_LOOP = """
.proc tight
.livein r32
.liveout r8
.block PRE freq=10
  mov r9 = 0
  add r4 = r32, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r4 = r4, r32
  xor r4 = r4, r32
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 7
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r4, 0
  br.ret b0
.endp
"""


def _pipeline(text):
    fn = parse_function(text)
    cfg = CfgInfo(fn)
    ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
    return fn, cfg, ddg


def _loop_parts(text):
    fn, cfg, ddg = _pipeline(text)
    loop = cfg.loops[0]
    body = body_instructions(fn, loop)
    edges = build_modulo_edges(fn, loop, body, ddg)
    return fn, cfg, ddg, loop, body, edges


# -- bounds --------------------------------------------------------------------
def test_resource_mii_counts_memory_ports():
    # Five memory operations against the Itanium 2's four M slots per
    # issue group force ResMII >= ceil(5/4) = 2.
    text = """
.proc mem
.livein r32
.liveout r8
.block PRE freq=10
  mov r9 = 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  ld8 r10 = [r32+0] cls=heap
  ld8 r11 = [r32+8] cls=heap
  ld8 r12 = [r32+16] cls=heap
  ld8 r13 = [r32+24] cls=heap
  st8 [r32+32] = r10 cls=glob
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 5
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r10, 0
  br.ret b0
.endp
"""
    _fn, _cfg, _ddg, _loop, body, _edges = _loop_parts(text)
    assert resource_mii(body, ITANIUM2) >= 2


def test_recurrence_mii_from_carried_cycle():
    # add -> xor (latency 1) and xor -> add carried with distance 1
    # (latency 1): cycle latency 2 over distance 1 -> RecMII 2.
    text = """
.proc rec
.livein r32, r33
.liveout r8
.block PRE freq=10
  mov r9 = 0
  add r4 = r32, 0
  add r5 = r33, 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r4 = r5, r32
  xor r5 = r4, r33
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 7
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r4, 0
  br.ret b0
.endp
"""
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(text)
    mii = recurrence_mii(body, edges)
    assert mii >= 2
    assert has_positive_cycle(body, edges, mii - 1)
    assert not has_positive_cycle(body, edges, mii)


def test_critical_path_bounds_acyclic_span():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(COUNTED_LOOP)
    span = critical_path(body, edges)
    # add(1) -> ld(2) -> xor(1) -> and(1) -> or(1) -> st chain exists.
    assert span >= 5


# -- formulation ---------------------------------------------------------------
def test_modulo_ilp_respects_rows_and_dependences():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(COUNTED_LOOP)
    mii = max(resource_mii(body, ITANIUM2), recurrence_mii(body, edges), 1)
    ilp = ModuloIlp(body, edges, mii, machine=ITANIUM2, max_stages=4)
    solution = solve_model(ilp.model, backend="highs", time_limit=20.0)
    assert solution, solution.status
    starts = ilp.start_times(solution)
    assert set(starts) == set(body)
    # Modulo reservation: per row, per unit kind, within dispersal caps.
    rows = {}
    for instr, start in starts.items():
        rows.setdefault(start % mii, []).append(instr)
    for row_ops in rows.values():
        assert len(row_ops) <= 6
        mem = sum(1 for i in row_ops if i.op.is_load or i.op.is_store)
        assert mem <= 4
    # Dependences hold in the flat (cross-iteration) schedule.
    for edge in edges:
        if edge.src not in starts or edge.dst not in starts:
            continue
        assert (
            starts[edge.dst] + edge.distance * mii
            >= starts[edge.src] + edge.latency
        ), (edge.src.mnemonic, edge.dst.mnemonic)


def test_modulo_ilp_infeasible_below_recurrence_bound():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(TIGHT_LOOP)
    rec = recurrence_mii(body, edges)
    assert rec >= 2
    ilp = ModuloIlp(body, edges, rec - 1, machine=ITANIUM2, max_stages=4)
    solution = solve_model(ilp.model, backend="highs", time_limit=20.0)
    assert not solution


def _cell_model(body, edges, ii, machine=ITANIUM2, max_stages=4):
    """Reference oracle: one binary per (instruction, row, stage) cell.

    The formulation ``ModuloIlp`` replaced — the same assignment,
    dependence, lifetime, reservation and ``Σ t_n`` rows, with ``t_n``
    expanded over all ``II · max_stages`` cells.  Test-only.
    """
    model = Model(f"cells_ii{ii}")
    cells, start = {}, {}
    for instr in body:
        for row in range(ii):
            for stage in range(max_stages):
                cells[instr, row, stage] = model.add_binary(
                    f"y_{instr.uid}_{row}_{stage}"
                )
        mine = [(r, s) for r in range(ii) for s in range(max_stages)]
        model.add_constraint(lin_sum(cells[instr, r, s] for r, s in mine) == 1)
        start[instr] = lin_sum(
            (s * ii + r) * cells[instr, r, s] for r, s in mine
        )
    members = set(body)
    for edge in edges:
        if edge.src not in members or edge.dst not in members:
            continue
        gap = start[edge.dst] - start[edge.src]
        model.add_constraint(gap >= edge.latency - edge.distance * ii)
        if edge.latency > 0:
            model.add_constraint(
                gap <= max_stages * ii - 1 - edge.distance * ii
            )
    ports = machine.ports
    caps = [
        ((UnitKind.M,), ports.m_ports),
        ((UnitKind.I, UnitKind.L), ports.i_ports),
        ((UnitKind.F,), ports.f_ports),
        ((UnitKind.B,), ports.b_ports),
        ((UnitKind.A, UnitKind.M, UnitKind.I), ports.m_ports + ports.i_ports),
    ]
    for row in range(ii):
        used = [
            (i, cells[i, row, s]) for i in body for s in range(max_stages)
        ]
        model.add_constraint(
            lin_sum((2.0 if i.unit is UnitKind.L else 1.0) * v
                    for i, v in used) <= ports.issue_width
        )
        for kinds, cap in caps:
            terms = [v for i, v in used if i.unit in kinds]
            if len(terms) > cap:
                model.add_constraint(lin_sum(terms) <= cap)
    model.set_objective(lin_sum(start.values()))
    return model


def _equivalence_loops():
    yield "counted", _loop_parts(COUNTED_LOOP)
    yield "tight", _loop_parts(TIGHT_LOOP)
    for spec, fn in loop_dominated_family(count=10, scale=1.0, seed=1):
        cfg = CfgInfo(fn)
        ddg = build_dependence_graph(fn, cfg, compute_liveness(fn))
        loop = cfg.loops[0]
        body = body_instructions(fn, loop)
        edges = build_modulo_edges(fn, loop, body, ddg)
        yield spec.name, (fn, cfg, ddg, loop, body, edges)


def _same_optimum(models, label):
    got, want = (
        solve_model(model, backend="highs", time_limit=30.0)
        for model in models
    )
    for sol in (got, want):
        assert sol.status in (SolveStatus.OPTIMAL,
                              SolveStatus.INFEASIBLE), label
    assert got.status is want.status, label
    if want:
        assert got.objective == pytest.approx(want.objective), label
    return bool(want)


def test_compact_model_matches_cell_model():
    """Same verdict and optimal Σ t_n as the per-cell model, II = MII ± 1.

    At II = MII the latest schedule (maximal Σ t_n) must agree too: it
    presses starts against the stage bound, which the flat optimum
    never touches.
    """
    checked = 0
    for name, (_fn, _cfg, _ddg, _loop, body, edges) in _equivalence_loops():
        mii = max(resource_mii(body, ITANIUM2),
                  recurrence_mii(body, edges), 1)
        for ii in range(max(mii - 1, 1), mii + 2):
            models = (ModuloIlp(body, edges, ii).model,
                      _cell_model(body, edges, ii))
            feasible = _same_optimum(models, (name, ii))
            if ii == mii and feasible:
                for model in models:
                    model.set_objective(-model.objective)
                _same_optimum(models, (name, ii, "latest"))
            checked += 1
    assert checked >= 30


def _solved_counted():
    _fn, _cfg, _ddg, _loop, body, edges = _loop_parts(COUNTED_LOOP)
    mii = max(resource_mii(body, ITANIUM2), recurrence_mii(body, edges), 1)
    ilp = ModuloIlp(body, edges, mii)
    solution = solve_model(ilp.model, backend="highs", time_limit=20.0)
    assert solution and ilp.start_times(solution) is not None
    return ilp, solution


def test_start_times_rejects_corrupt_solutions():
    ilp, solution = _solved_counted()

    def decode(changes):
        values = {**solution.values, **changes}
        return ilp.start_times(replace(solution, values=values))

    instr = ilp.body[0]
    assert decode({}) is not None
    # A row one-hot with no set cell.
    assert decode({cell: 0.0 for cell in ilp.rows[instr]}) is None
    # A stage outside [0, max_stages), after rounding.  Shifting every
    # stage keeps each dep_/life_ gap, so only the range check fires.
    for shift in (ilp.max_stages, ilp.max_stages - 0.4, -ilp.max_stages):
        assert decode({stage: solution.values[stage] + shift
                       for stage in ilp.stage.values()}) is None
    # Starts that break a dep_ row: move dst onto src's (row, stage).
    src, dst = next(
        (s, d) for s, d, low, _high in ilp.spans if low >= 1 and s is not d
    )
    moved = {cell: solution.values[own]
             for cell, own in zip(ilp.rows[dst], ilp.rows[src])}
    moved[ilp.stage[dst]] = solution.values[ilp.stage[src]]
    assert decode(moved) is None


def test_compact_model_size_and_bb_backend():
    ilp, solution = _solved_counted()
    ii = ilp.ii
    size = ilp.size
    assert size["variables"] == len(ilp.body) * (ii + 1)
    assert size["nonzeros"] == ilp.model.to_arrays()["A"].nnz
    spans = [c for c in ilp.model.constraints
             if c.name.startswith(("dep_", "life_"))]
    assert spans
    assert all(len(c.expr.terms) <= 2 * ii + 2 for c in spans)
    # The stage columns are general integers: bb must branch on them and
    # still reach the highs optimum.
    assert any(v.is_integer and not v.is_binary for v in ilp.model.variables)
    exact = solve_model(ilp.model, backend="bb", time_limit=60.0)
    assert exact.status is SolveStatus.OPTIMAL
    assert exact.objective == pytest.approx(solution.objective)
    assert ilp.start_times(exact) is not None


# -- the ladder ----------------------------------------------------------------
@pytest.fixture(scope="module")
def counted_outcome():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    return pipeline_loop(fn, cfg, ddg, loop), fn


def test_ladder_pipelines_at_mii(counted_outcome):
    outcome, _fn = counted_outcome
    assert outcome.status == "pipelined"
    assert outcome.ii == outcome.mii
    assert outcome.oracle and outcome.oracle.ok
    assert "pipelined II=" in outcome.summary()


def test_ladder_outcome_kernel_executes(counted_outcome):
    outcome, fn = counted_outcome
    interp = Interpreter()
    registers = initial_registers(fn, 3)
    want = interp.run_function(fn, registers, seed=3)
    got = interp.run_function(outcome.pipelined_fn, registers, seed=3)
    assert got.live_out_state(fn) == want.live_out_state(fn)
    assert got.memory == want.memory


def test_ladder_not_counted_is_unpipelined():
    # A loop whose counter is also live-out is out of recognizer scope.
    text = """
.proc notcounted
.livein r32
.liveout r8, r9
.block PRE freq=10
  mov r9 = 0
.block LOOP freq=100 succ=LOOP:0.9,POST:0.1
  add r10 = r32, r9
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 5
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r10, 0
  br.ret b0
.endp
"""
    fn, cfg, ddg = _pipeline(text)
    outcome = pipeline_loop(fn, cfg, ddg, cfg.loops[0])
    assert outcome.status == "unpipelined"
    assert outcome.fallback_reason == "not_counted"
    assert not outcome.pipelined
    assert "unpipelined" in outcome.summary()


def test_ladder_chaos_degrades_never_raises():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    # One materialization fault discards the only kernel: the loop lands
    # on the unpipelined floor with the cause recorded.
    with faults.inject("swp.materialize=error:1"):
        outcome = pipeline_loop(fn, cfg, ddg, loop)
        # The one-shot fault is spent: the next call pipelines.
        clean = pipeline_loop(fn, cfg, ddg, loop)
    assert outcome.status == "unpipelined"
    assert not outcome.pipelined
    assert outcome.fallback_reason == "materialize"
    assert outcome.ii == outcome.mii  # the kernel was found, then dropped
    assert clean.status == "pipelined"
    assert clean.oracle and clean.oracle.ok


def test_ladder_solves_each_loop_once_under_persistent_fault():
    """A discarded kernel is not re-solved by a second formulation."""
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    trace = Trace()
    with faults.inject("swp.materialize=error"):
        outcome = pipeline_loop(fn, cfg, ddg, loop, trace=trace)
    assert outcome.status == "unpipelined"
    assert outcome.fallback_reason == "materialize"
    names = [record["name"] for record in trace.records]
    # The fault fires before code generation, so only the II climb and
    # its per-II solves leave spans — no second search of any kind.
    assert names.count("swp.ladder") == 1
    assert set(names) == {"swp.ladder", "swp.solve_ii"}


def test_ladder_respects_exhausted_deadline():
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    deadline = Deadline(0.0)
    outcome = pipeline_loop(fn, cfg, ddg, loop, deadline=deadline)
    assert outcome.status == "unpipelined"


def test_ladder_cache_roundtrip(tmp_path):
    from repro.sched.scheduler import ScheduleFeatures
    from repro.serve.store import ScheduleStore

    store = ScheduleStore(tmp_path / "cache")
    features = ScheduleFeatures(swp=True)
    fn, cfg, ddg, loop, _body, _edges = _loop_parts(COUNTED_LOOP)
    first = pipeline_loop(fn, cfg, ddg, loop, features=features, store=store)
    assert first.cache == "miss"
    assert first.status == "pipelined"
    second = pipeline_loop(fn, cfg, ddg, loop, features=features, store=store)
    assert second.cache == "hit"
    assert second.status == "pipelined"
    assert second.ii == first.ii
    # The cached rung still executes the oracle before trusting the entry.
    assert second.oracle and second.oracle.ok


_SWP_MODULES = (
    "repro.sched.modulo", "repro.sched.modulo.ladder", "repro.sched.swp",
)


@pytest.mark.parametrize("first", _SWP_MODULES)
def test_modulo_modules_import_in_any_order(first):
    """No import cycle between the ladder and the shared SWP data.

    Only the first import of a fresh interpreter can trip a cycle, so
    leading with each module covers both orders of every pair.
    """
    order = (first,) + tuple(m for m in _SWP_MODULES if m != first)
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = "; ".join(f"import {name}" for name in order)
    code += "; from repro.sched.modulo import modulo_schedule, pipeline_loop"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# -- satellite: execution-equivalence property ---------------------------------
def _counted_template(trips, accumulators):
    accs = ""
    body = ""
    outs = []
    for k in range(accumulators):
        accs += f"  add r{40 + k} = r3{3 + k}, 0\n"
        body += f"  add r{40 + k} = r{40 + k}, r15\n"
        outs.append(f"r{40 + k}")
    return f"""
.proc prop
.livein r32, r33, r34, r35
.liveout r8, {", ".join(outs)}
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
{accs}.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  ld8 r21 = [r15+0] cls=heap
  xor r23 = r21, r33
{body}  st8 [r33+8] = r23 cls=glob
  adds r15 = 8, r15
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, {trips}
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r23, 0
  br.ret b0
.endp
"""


@given(
    trips=st.integers(min_value=0, max_value=9),
    accumulators=st.integers(min_value=1, max_value=2),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_materialized_pipeline_equivalent_for_any_trip_count(
    trips, accumulators, seed
):
    """The pinned acceptance property (ISSUE 10, satellite 3).

    For arbitrary trip counts — including 0 and 1, both below the stage
    count — the materialized prologue/kernel/epilogue routine computes
    the same live-outs and memory image as the source loop, and any
    achieved II respects the ResMII/RecMII floor.
    """
    fn, cfg, ddg = _pipeline(_counted_template(trips, accumulators))
    loop = cfg.loops[0]
    outcome = pipeline_loop(fn, cfg, ddg, loop, time_limit=20.0)
    assert isinstance(outcome, LoopPipelineOutcome)
    if not outcome.pipelined:
        return  # degradation is legal; equivalence is vacuous
    assert outcome.ii >= max(outcome.mii_resource, outcome.mii_recurrence)
    interp = Interpreter()
    registers = initial_registers(fn, seed)
    want = interp.run_function(fn, registers, seed=seed)
    got = interp.run_function(outcome.pipelined_fn, registers, seed=seed)
    assert want.returned and got.returned
    assert got.live_out_state(fn) == want.live_out_state(fn)
    assert got.memory == want.memory
