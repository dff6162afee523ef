"""Solve telemetry, cut attribution and paper-metric analytics."""

import pickle

import pytest

from repro.ilp import BranchBoundSolver, Model, SolveStatus
from repro.ir.parser import parse_function
from repro.obs import insight
from repro.sched.scheduler import ScheduleFeatures, optimize_function

SMALL = """
.proc tiny
.livein r32, r33
.liveout r8
.block A freq=10
  add r8 = r32, r33
  br.ret b0
.endp
"""

# Sec. 4.2 trigger (two F-unit ops + movl): fires one bundling cut.
CUT_TRIGGER = """
.proc fbound
.livein r32, f5, f6, f8, f9
.liveout r8, f4, f7
.block A freq=100
  fma f4 = f5, f6
  fma f7 = f8, f9
  movl r10 = 99999
  add r8 = r10, r32
  br.ret b0
.endp
"""


def _solve():
    model = Model("m")
    a, b = model.add_binary("a"), model.add_binary("b")
    model.add_constraint(a + b <= 1)
    model.set_objective(-(2 * a + b))
    return BranchBoundSolver().solve(model)


def test_solve_telemetry_is_plain_picklable_data():
    solution = _solve()
    entry = insight.solve_telemetry("solve.phase1", "bb", solution)
    assert entry["site"] == "solve.phase1"
    assert entry["backend"] == "bb"
    assert entry["status"] == "OPTIMAL"
    assert entry["gap"] == pytest.approx(0.0)
    assert entry["gap_timeline"]["closed"]
    assert pickle.loads(pickle.dumps(entry)) == entry


def test_cut_effect_attribution_fields():
    solution = _solve()
    effect = insight.cut_effect(0, 3, -1.0, solution, "solve.cut_resolve")
    assert effect["cut_index"] == 0
    assert effect["members"] == 3
    # new objective - previous objective
    assert effect["bound_delta"] == pytest.approx(solution.objective + 1.0)
    assert effect["resolve_status"] == "OPTIMAL"
    assert effect["resolve_seconds"] >= 0


def test_scheduler_trace_carries_solves_cuts_and_paper_metrics():
    fn = parse_function(CUT_TRIGGER)
    result = optimize_function(fn, ScheduleFeatures(time_limit=30))
    trace = result.trace
    sites = [s["site"] for s in trace.solves]
    assert "solve.phase1" in sites and "solve.cut_resolve" in sites
    for entry in trace.solves:
        assert entry["gap_timeline"]["closed"]
        assert len(entry["gap_timeline"]["samples"]) >= 2
    assert len(trace.cuts) == 1
    cut = trace.cuts[0]
    assert cut["resolve_status"] == "OPTIMAL"
    assert cut["resolve_seconds"] > 0
    assert cut["resolve_nodes"] >= 1
    paper = trace.paper_metrics
    assert paper["routine"] == "fbound"
    assert paper["quality"] == result.quality
    assert paper["instructions_out"] >= 1
    # Gap surfaces through ilp_size and the report text.
    assert result.ilp_size["gap"] == pytest.approx(0.0)
    assert "final optimality gap" in result.report()


def test_paper_metrics_row_shape():
    fn = parse_function(SMALL)
    result = optimize_function(fn, ScheduleFeatures(time_limit=30))
    row = insight.paper_metrics(result)
    for key in (
        "static_reduction", "weighted_ipc_in", "weighted_ipc_out",
        "delta_instructions", "delta_bundles", "nop_density_in",
        "nop_density_out", "compensation_copies", "spec_possible",
        "spec_used",
    ):
        assert key in row, key
    assert 0.0 <= row["nop_density_out"] <= 1.0


def test_aggregate_paper_metrics_averages_and_sums():
    rows = [
        {"routine": "a", "quality": "optimal", "static_reduction": 0.2,
         "instructions_in": 10, "instructions_out": 12},
        {"routine": "b", "quality": "incumbent", "static_reduction": 0.4,
         "instructions_in": 20, "instructions_out": 18},
        None,  # degraded pool outcome: skipped
    ]
    summary = insight.aggregate_paper_metrics(rows)
    assert summary["routines"] == 2
    assert summary["by_quality"] == {"optimal": 1, "incumbent": 1}
    assert summary["average"]["static_reduction"] == pytest.approx(0.3)
    assert summary["total"]["instructions_in"] == 30
    assert insight.aggregate_paper_metrics([])["routines"] == 0


def test_metric_families_from_metrics_dump():
    metrics = {
        "counters": {
            'cache_hits_total{kind="exact"}': 6.0,
            'cache_hits_total{kind="family"}': 2.0,
            'cache_hits_total{kind="miss"}': 2.0,
            'cache_store_errors_total{op="get"}': 1.0,
            'cache_store_errors_total{op="put"}': 1.0,
            'routine_fallback_total{routine="f",tier="optimal"}': 1.0,
            "swp_ii_at_mii_total": 4.0,
        },
        "gauges": {"cache_size_bytes": 12345.0},
        "histograms": {
            'serve_request_seconds{kind="exact"}': {
                "buckets": {"+Inf": 3}, "sum": 0.5, "count": 3,
            },
            'serve_request_seconds{kind="miss"}': {
                "buckets": {"+Inf": 1}, "sum": 1.5, "count": 1,
            },
        },
    }
    families = insight.metric_families(metrics, ("cache_", "serve_"))
    assert set(families) == {
        "cache_hits_total", "cache_store_errors_total", "cache_size_bytes",
        "serve_request_seconds",
    }
    hits = families["cache_hits_total"]
    assert hits["kind"] == "counter"
    assert hits["total"] == 10.0
    assert hits["by_label"] == {"exact": 6.0, "family": 2.0, "miss": 2.0}
    assert families["cache_store_errors_total"]["total"] == 2.0  # both ops
    size = families["cache_size_bytes"]
    assert (size["kind"], size["total"], size["by_label"]) == (
        "gauge", 12345.0, {},
    )
    latency = families["serve_request_seconds"]
    assert latency["kind"] == "histogram"
    assert (latency["count"], latency["sum"]) == (4, pytest.approx(2.0))
    assert latency["mean"] == pytest.approx(0.5)
    assert latency["total"] == latency["count"]
    assert latency["by_label"]["exact"]["mean"] == pytest.approx(0.5 / 3)
    assert latency["by_label"]["miss"] == {"count": 1, "sum": 1.5, "mean": 1.5}
    # Several labels key by their values joined in label-name order.
    every = insight.metric_families(metrics, ("",))
    assert every["routine_fallback_total"]["by_label"] == {"f,optimal": 1.0}
    assert len(every) == 6


def test_metric_families_empty_and_none():
    for metrics in (None, {}, {"counters": {}, "gauges": {}}):
        assert insight.metric_families(metrics, ("cache_",)) == {}
    assert insight.metric_families(
        {"counters": {"solves_total": 1.0}}, ("cache_", "swp_")
    ) == {}


def test_metric_families_from_live_decompose_run(tmp_path):
    from repro.obs import core as obs
    from repro.obs import export
    from repro.sched.scheduler import ScheduleFeatures as SF
    from repro.sched.scheduler import optimize_function
    from repro.workloads.generator import MultiRegionSpec, generate_multi_region

    fn = generate_multi_region(
        MultiRegionSpec(
            name="mrobs", segments=4, segment_instructions=10,
            segment_blocks=4, seed=5,
        )
    )
    obs.disable()
    obs.enable()
    try:
        result = optimize_function(
            fn,
            SF(time_limit=90, max_hops=4, decompose_min_instructions=24),
        )
        families = insight.metric_families(
            export.metrics_dict(), ("decompose_", "partition_")
        )
    finally:
        obs.disable()
    assert any("decomposed into" in m for m in result.messages)
    partitions = families["decompose_partitions_total"]["total"]
    solves = families["partition_solve_seconds"]
    assert partitions >= 2
    assert solves["count"] == partitions
    assert solves["sum"] > 0.0


def test_metric_families_from_live_serve_run(tmp_path):
    from repro.obs import core as obs
    from repro.obs import export
    from repro.sched.scheduler import ScheduleFeatures as SF
    from repro.serve.service import ScheduleService

    fn = parse_function(SMALL)
    obs.disable()
    obs.enable()
    try:
        svc = ScheduleService(tmp_path / "cache", default_features=SF(time_limit=20))
        svc.request(fn)
        svc.request(fn)
        families = insight.metric_families(export.metrics_dict(), ("cache_",))
    finally:
        obs.disable()
    hits = families["cache_hits_total"]
    assert hits["total"] == 2
    assert hits["by_label"]["exact"] == 1
    assert hits["by_label"]["miss"] == 1


def test_metric_families_from_live_swp_run():
    from repro.obs import core as obs
    from repro.obs import export

    counted = """
.proc swpobs
.livein r32, r33
.liveout r8
.block PRE freq=10
  add r15 = r32, 0
  mov r9 = 0
.block LOOP freq=130 succ=LOOP:0.92,POST:0.08
  ld8 r21 = [r15+0] cls=heap
  xor r23 = r21, r33
  st8 [r33+8] = r23 cls=glob
  adds r15 = 8, r15
  adds r9 = 1, r9
  cmp.lt p16, p17 = r9, 6
  (p16) br.cond LOOP
.block POST freq=10
  add r8 = r23, 0
  br.ret b0
.endp
"""
    fn = parse_function(counted)
    obs.disable()
    obs.enable()
    try:
        result = optimize_function(
            fn, ScheduleFeatures(time_limit=60, swp=True)
        )
        families = insight.metric_families(export.metrics_dict(), ("swp_",))
    finally:
        obs.disable()
    assert result.swp_outcomes, result.messages
    loops = families["swp_loops_total"]
    assert loops["total"] >= 1
    assert loops["by_label"].get("pipelined", 0) >= 1
    assert families["swp_oracle_total"]["by_label"].get("pass", 0) >= 1
