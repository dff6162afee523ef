"""Smoke-sized self-test of the benchmark's metric extraction.

    python3 perfbench/selftest.py

Checks the percentile rule, self time and attribution on hand-made span
trees, the divergence comparison, ``loop_cycles`` on a pipelined loop,
the layer table of a real traced compile of one small routine, that a
run's work is fixed by ``--seconds``, and that ``BENCHMARK.json``
matches ``catalog.py``.  Takes a few seconds.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402
import spans  # noqa: E402


def _span(id_, name, ts, dur, tid=0, parent=None):
    ev = {"type": "span", "id": id_, "name": name, "ts": ts, "dur": dur,
          "tid": tid}
    if parent is not None:
        ev["parent"] = parent
    return ev


def test_tail_rule():
    assert spans.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    values = list(range(1, 31))  # 30 samples: 10 lie beyond the 20th
    value, percentile, n = spans.tail(values)
    assert (value, n) == (20, 30) and abs(percentile - 200 / 3) < 1e-9
    assert sum(v > value for v in values) == 10


def test_self_time_and_adoption():
    events = [
        _span(1, "bench.pass", 0.0, 10.0),
        _span(2, "bench.optimize", 0.5, 9.0, parent=1),
        _span(3, "optimize", 1.0, 8.0, parent=2),
        _span(4, "decompose", 2.0, 6.0, parent=3),
        # Two partitions solved concurrently on worker threads 1 and 2.
        _span(5, "solve.phase1", 2.5, 4.0, tid=1),
        _span(6, "ilp.solve", 2.6, 3.5, tid=1, parent=5),
        _span(7, "solve.phase1", 3.0, 4.5, tid=2),
    ]
    tree = spans.SpanTree(events)
    assert tree.parent[5] == 4 and tree.parent[7] == 4
    # decompose: 6.0 minus the union [2.5, 7.5] of its partitions.
    assert abs(tree.self_time(4) - 1.0) < 1e-9
    assert tree.layer_of(6) == "ilp.highs.phase1"  # unlisted span folds up
    table = tree.layer_table([1])
    assert abs(table["ilp.highs.phase1"]["self_s"] - 8.5) < 1e-9
    assert table["ilp.highs.phase1"]["count"] == 2
    bench_self, attributed, accounted = spans.attribution(table, 10.0)
    assert abs(bench_self - 2.0) < 1e-9  # 1 s in each benchmark span
    # The partitions overlap for 3.5 s, so self times add up to 13.5 s.
    assert abs(attributed - 1.15) < 1e-9 and abs(accounted - 1.35) < 1e-9


def test_divergence_comparison():
    from repro.ir.interp import ExecutionResult
    from repro.ir.parser import parse_function

    import compile_bench

    fn = parse_function(
        ".proc f\n.liveout r8\n.block A freq=1\n  add r8 = r0, 1\n"
        "  br.ret b0\n.endp\n"
    )
    r8 = sorted(fn.live_out)[0]

    def run(trace, value, memory=None):
        return ExecutionResult({r8: value}, memory or {}, trace, 2, True)

    same = run(["A"], 1)
    assert compile_bench._diverges(fn, same, run(["A"], 1)) is None
    assert compile_bench._diverges(fn, same, run(["A"], 2)) == "live-outs"
    assert compile_bench._diverges(fn, same, run(["A", "A"], 1)) == "block trace"
    assert compile_bench._diverges(fn, same, run(["A"], 1, {8: 1})) == "memory"


def test_traced_compile_of_a_small_routine():
    from repro.obs import core as obs
    from repro.workloads.generator import LoopDominatedSpec, generate_loop_dominated

    import compile_bench

    spec = LoopDominatedSpec(name="smoke", body_instructions=5, trips=6)
    routine = compile_bench.Routine("smoke", generate_loop_dominated(spec))
    features = compile_bench.default_features(swp=True, time_limit=30)
    obs.enable()
    try:
        wall, times, results, pass_id = compile_bench._compile_pass(
            features, [routine]
        )
        rows, failures, _seeds = compile_bench.evaluate(
            [routine], results, seed=1, invocations=5
        )
        events = obs.snapshot()["events"]
    finally:
        obs.disable()
    result = results[0]
    assert not isinstance(result, Exception), result
    assert not failures, failures
    tree = spans.SpanTree(events)
    table = tree.layer_table([pass_id])
    for layer in ("ir.analyze", "sched.ilp_formulation.build",
                  "ilp.highs.phase1", "sched.optimize", "sched.modulo.ladder"):
        assert table[layer]["count"] >= 1, layer
    _bench, _attributed, accounted = spans.attribution(table, wall)
    # No parallel work here: self times add up to the wall time, up to
    # the microseconds between a span's clock reads and its parent's.
    assert abs(accounted - 1.0) < 1e-3, accounted
    metrics = compile_bench._layer_metrics(table, results, rows)
    names = {name for name, *_ in catalog.PER_LAYER}
    assert set(metrics) <= names, set(metrics) - names
    assert metrics["sched.modulo.pipelined_frac"] == 1.0
    # The one loop is pipelined: II x (trips + stages - 1) per entry.
    outcome = result.swp_outcomes[0]
    expected = spec.base_freq * outcome.ii * (spec.trips + outcome.stages - 1)
    assert abs(compile_bench.loop_cycles(result) - expected) < 1e-6


def test_fixed_work_per_run():
    # The work a run does depends on --seconds only, so two runs with
    # the same --seconds attempt the same operations.
    import compile_bench
    import fleet_bench

    assert compile_bench.pass_count("loop_corpus", 15) == 2
    assert compile_bench.pass_count("paper_scale", 15) == 1
    assert fleet_bench.deck_cycles(15) == fleet_bench.deck_cycles(15.0) >= 1
    samples = [
        {"ok": True, "latency_s": 0.01 * k, "end": 100.0 + k}
        for k in range(1, 4)
    ] + [{"ok": False, "latency_s": 9.0, "end": 104.0}]
    load, tail = fleet_bench._load_metrics(samples, 100.0)
    assert abs(load["req_per_s"] - 3 / 4.0) < 1e-9  # failures take time
    assert abs(load["latency_p50_ms"] - 20.0) < 1e-9  # ok replies only
    assert abs(load["latency_tail_ms"] - 30.0) < 1e-9
    assert tail == {"percentile": 100.0, "samples": 3}


def test_manifest_matches_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        assert json.load(handle) == catalog.manifest(), (
            "BENCHMARK.json is stale: run python3 perfbench/run.py --manifest"
        )


def main():
    tests = [
        (name, fn) for name, fn in sorted(globals().items())
        if name.startswith("test_") and callable(fn)
    ]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
