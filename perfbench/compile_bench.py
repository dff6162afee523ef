"""The compile workloads: paper_scale, loop_corpus and multi_region.

Each workload is a fixed routine set compiled in process with one
``ScheduleFeatures``.  The workload seed drives what the routines are
run on, not which routines they are: the interpreter's input values
for the correctness oracle and the simulator's profile path trace.
Compile time varies two- to tenfold between generated routines of one
size (a 10-routine loop family takes 2.8-4.7 s, and three families in
nineteen hit the 10 s software-pipelining budget; one multi-region
routine takes 1.5-20 s), so a seeded draw of routines could not hold
``compile_s`` inside any useful bound.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import time

from repro.ir.cfg import CfgInfo
from repro.ir.interp import Interpreter, InterpreterError, initial_registers
from repro.obs import core as obs
from repro.perf.pipeline import PipelineSimulator
from repro.perf.trace import generate_trace
from repro.sched.modulo.oracle import kernel_vs_unrolled
from repro.sched.scheduler import IlpScheduler
from repro.sched.swp_materialize import recognize_counted_loop
from repro.tools.experiments import default_features
from repro.workloads.generator import (
    LoopDominatedSpec,
    MultiRegionSpec,
    generate_loop_dominated,
    generate_multi_region,
    loop_dominated_family,
)
from repro.workloads.spec_routines import SPEC_BY_NAME, build_spec_routine

import spans

# longest_match and deflate are left out: both stop at the 90 s limit
# at phase-1 quality, so their compile time would only measure the budget.
PAPER_ROUTINES = (
    "send_bits", "firstone", "get_heap_head", "add_to_heap", "qSort3",
    "xfree", "prune_match",
)
LOOP_FAMILY_SEEDS = (1, 2)
MULTI_REGION_SEEDS = (1, 2)
# Sized so every routine splits into five partitions and solves in
# 1.5-5 s; at the family's scale 1.0 one routine took 3.9-43.8 s.
MULTI_REGION_SHAPE = dict(segments=5, segment_instructions=10, segment_blocks=4)

SETUP_REPEATS = 3
# Seconds one untraced pass took on the 2-core host the benchmark was
# written on.  A run makes ``round(seconds / pass)`` passes, at least
# one, so every run with the same ``--seconds`` does the same work and
# two runs differ only in how fast they did it.
PASS_SECONDS = {"paper_scale": 35.0, "loop_corpus": 7.5, "multi_region": 6.6}
ORACLE_SEEDS_PER_RUN = 3
INTERP_MAX_BLOCKS = 600  # the differential test suite's execution bound
# Profile-trace invocations per routine (tools.experiments uses 120):
# enough for a steady speedup, few enough that simulating stays a small
# part of a run; the generated routines' loops make each invocation long.
SIM_INVOCATIONS = {"paper_scale": 30, "loop_corpus": 10, "multi_region": 10}
DEFAULT_MISS_RATE = 0.03

@dataclasses.dataclass
class Routine:
    label: str
    fn: object
    miss_rate: float = DEFAULT_MISS_RATE


def _paper_scale():
    return default_features(), [
        Routine(name, build_spec_routine(name, scale=1.0),
                SPEC_BY_NAME[name].miss_rate)
        for name in PAPER_ROUTINES
    ]


def _loop_corpus():
    return default_features(swp=True), [
        Routine(f"f{family}.{spec.name}", fn)
        for family in LOOP_FAMILY_SEEDS
        for spec, fn in loop_dominated_family(count=10, scale=1.0, seed=family)
    ]


def _multi_region():
    routines = []
    for seed in MULTI_REGION_SEEDS:
        spec = MultiRegionSpec(name=f"mr{seed}", seed=seed, **MULTI_REGION_SHAPE)
        routines.append(Routine(spec.name, generate_multi_region(spec)))
    return default_features(decompose_min_instructions=60), routines


CORPORA = {
    "paper_scale": _paper_scale,
    "loop_corpus": _loop_corpus,
    "multi_region": _multi_region,
}


def _setup(workload):
    """One set-up after the imports: generate the routines."""
    started = time.perf_counter()
    with obs.span("bench.generate", workload=workload):
        features, routines = CORPORA[workload]()
    return time.perf_counter() - started, features, routines


def warm_up(features):
    """Compile one small routine untimed, so the first timed routine does
    not pay for lazy imports and first calls into the solver."""
    spec = LoopDominatedSpec(name="warmup", body_instructions=6, trips=5)
    IlpScheduler(features=features).optimize(generate_loop_dominated(spec))


def _compile_pass(features, routines):
    """Optimize every routine once; ``(wall, per-routine times, results,
    pass span id)``.  A raised exception stands in for its result."""
    times, results = [], []
    with obs.span("bench.pass") as pass_span:
        started = time.perf_counter()
        for routine in routines:
            with obs.span("bench.optimize", routine=routine.label):
                t0 = time.perf_counter()
                try:
                    result = IlpScheduler(features=features).optimize(routine.fn)
                except Exception as exc:  # counted as a failed routine
                    result = exc
                times.append(time.perf_counter() - t0)
            results.append(result)
        wall = time.perf_counter() - started
    return wall, times, results, pass_span.span_id


def _diverges(fn, want, got):
    """The differential suite's comparison; ``None`` when equal."""
    if got.block_trace != want.block_trace:
        return "block trace"
    if want.returned != got.returned:
        return "returned"
    if want.returned:
        if got.live_out_state(fn) != want.live_out_state(fn):
            return "live-outs"
        if got.memory != want.memory:
            return "memory"
    return None


def check_routine(result, seeds):
    """Problems found in one compiled routine (empty when it is sound)."""
    if isinstance(result, Exception):
        return [f"optimize raised {type(result).__name__}: {result}"]
    problems = []
    if result.verification is not None and not result.verification.ok:
        problems.append("verification rejected the schedule")
    if result.quality == "fallback_input":
        problems.append(f"fallback_input ({result.fallback_reason})")
    interp = Interpreter(max_blocks=INTERP_MAX_BLOCKS)
    for seed in seeds:
        registers = initial_registers(result.fn, seed)
        with obs.span("bench.interpret", seed=seed):
            try:
                want = interp.run_function(result.fn, registers, seed=seed)
                got = interp.run_schedule(
                    result.output_schedule, result.fn, registers, seed=seed
                )
            except InterpreterError as exc:
                problems.append(f"seed {seed}: interpreter error: {exc}")
                continue
        where = _diverges(result.fn, want, got)
        if where is not None:
            problems.append(f"seed {seed}: output diverges ({where})")
    for outcome in result.swp_outcomes:
        if outcome.pipelined:
            report = kernel_vs_unrolled(result.fn, outcome.pipelined_fn, seeds)
            if not report.ok:
                problems.append(
                    f"pipelined loop {outcome.loop_header}: {report.problems[0]}"
                )
    return problems


def loop_cycles(result):
    """Frequency-weighted cycles spent in loops.

    A pipelined loop costs II x (trips + stages - 1) per entry; any other
    loop block costs its output length at its frequency.
    """
    fn = result.fn
    loops = CfgInfo(fn).loops
    pipelined = {o.loop_header: o for o in result.swp_outcomes if o.pipelined}
    total = 0.0
    done = set()
    for loop in loops:
        outcome = pipelined.get(loop.header)
        counted = recognize_counted_loop(fn, loop) if outcome else None
        if counted is None:
            continue
        entries = fn.block(loop.header).freq / counted.trips
        total += entries * outcome.ii * (counted.trips + outcome.stages - 1)
        done |= loop.blocks
    for name in set().union(*(loop.blocks for loop in loops)) - done:
        total += fn.block(name).freq * result.output_schedule.block_length(name)
    return total


def _simulate(result, miss_rate, seed, invocations):
    """``(cycles in, cycles out, unstalled fraction out)`` over one
    shared path trace."""
    with obs.span("bench.simulate", routine=result.fn.name):
        path = generate_trace(result.fn, invocations=invocations, seed=seed)
        simulator = PipelineSimulator(miss_rate=miss_rate)
        sim_in = simulator.run(result.input_schedule, result.fn, path)
        sim_out = simulator.run(result.output_schedule, result.fn, path)
    return sim_in.cycles, sim_out.cycles, sim_out.unstalled_fraction


def evaluate(routines, results, seed, invocations):
    """Correctness oracle, simulation and Table-2-shaped rows."""
    oracle_seeds = tuple(
        ORACLE_SEEDS_PER_RUN * seed + k for k in range(ORACLE_SEEDS_PER_RUN)
    )
    rows, failures = [], {}
    for routine, result in zip(routines, results):
        problems = check_routine(result, oracle_seeds)
        if problems:
            failures[routine.label] = problems
        if isinstance(result, Exception):
            continue
        cycles_in, cycles_out, unstalled = _simulate(
            result, routine.miss_rate, seed, invocations
        )
        size = result.ilp_size
        rows.append({
            "routine": routine.label,
            "rows": size.get("constraints"),
            "cols": size.get("variables"),
            "nodes": size.get("nodes"),
            "phase1_s": result.trace.total_seconds("solve.phase1"),
            "quality": result.quality,
            "static_reduction": result.static_reduction,
            "weighted_in": result.weighted_length_in,
            "weighted_out": result.weighted_length_out,
            "bundles_out": result.bundles_out.total_bundles,
            "loop_cycles": loop_cycles(result),
            "sim_cycles_in": cycles_in,
            "sim_cycles_out": cycles_out,
            "unstalled_out": unstalled,
            "partitions": result.trace.counters.get("decompose_partitions", 0),
        })
    return rows, failures, oracle_seeds


def quality_metrics(rows, routine_count):
    speedups = [r["sim_cycles_in"] / r["sim_cycles_out"] for r in rows]
    return {
        "weighted_cycles": sum(r["weighted_out"] for r in rows),
        "sim_speedup": math.exp(
            sum(math.log(s) for s in speedups) / len(speedups)
        ),
        "loop_cycles": sum(r["loop_cycles"] for r in rows),
        "bundles_out": sum(r["bundles_out"] for r in rows),
        "optimal_frac": sum(r["quality"] == "optimal" for r in rows)
        / routine_count,
    }


def _layer_metrics(table, results, rows):
    def total(layer):
        return table.get(layer, {}).get("total_s", 0.0)

    def count(layer):
        return table.get(layer, {}).get("count", 0)

    ok = [r for r in results if not isinstance(r, Exception)]
    solves = [s for r in ok for s in r.trace.solves]
    hits = sum(r.trace.counters.get("warm_start_hits", 0) for r in ok)
    misses = sum(r.trace.counters.get("warm_start_misses", 0) for r in ok)
    outcomes = [o for r in ok for o in r.swp_outcomes]
    pipelined = [o for o in outcomes if o.pipelined]
    ladders = count("sched.modulo.ladder")
    return {
        "ir.analyze_s": total("ir.analyze"),
        "sched.list_scheduler.input_s": total("sched.list_scheduler.input"),
        "sched.ilp_formulation.build_s": total("sched.ilp_formulation.build"),
        "sched.ilp_formulation.builds": count("sched.ilp_formulation.build"),
        "ilp.rows": sum(r.ilp_size.get("constraints") or 0 for r in ok),
        "ilp.cols": sum(r.ilp_size.get("variables") or 0 for r in ok),
        "ilp.highs.phase1_s": total("ilp.highs.phase1"),
        "ilp.highs.phase1_nodes": sum(
            s.get("nodes") or 0 for s in solves if s.get("site") == "solve.phase1"
        ),
        "ilp.highs.lp_solves": sum(s.get("lp_solves") or 0 for s in solves),
        "ilp.highs.cut_resolve_s": total("ilp.highs.cut_resolve"),
        "ilp.highs.cut_resolves": count("ilp.highs.cut_resolve"),
        "ilp.warm_start_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "sched.phase2.solve_s": total("sched.phase2.solve"),
        "sched.phase2.applied_frac": (
            sum(bool(r.phase2_applied) for r in ok) / len(ok) if ok else 0.0
        ),
        "bundle.bundler_s": total("bundle.bundler"),
        "bundle.bundler_calls": count("bundle.bundler"),
        "sched.verifier.verify_s": total("sched.verifier.verify"),
        "sched.verifier.paths": sum(
            r.verification.paths_checked for r in ok if r.verification
        ),
        "sched.decompose.s": total("sched.decompose"),
        "sched.decompose.self_s": table.get("sched.decompose", {}).get("self_s", 0.0),
        "sched.decompose.partitions": sum(r["partitions"] for r in rows),
        "sched.modulo.ladder_s": total("sched.modulo.ladder"),
        "sched.modulo.ladder.self_s": (
            table.get("sched.modulo.ladder", {}).get("self_s", 0.0)
        ),
        "sched.modulo.solve_ii_s": total("sched.modulo.solve_ii"),
        "sched.modulo.rungs": (
            count("sched.modulo.solve_ii") / ladders if ladders else 0.0
        ),
        "sched.modulo.fallback_s": total("sched.modulo.fallback"),
        "sched.modulo.materialize_s": total("sched.modulo.materialize"),
        "sched.modulo.oracle_s": total("sched.modulo.oracle"),
        "sched.modulo.ii_at_mii_frac": (
            sum(o.ii == o.mii for o in pipelined) / len(pipelined)
            if pipelined else 0.0
        ),
        "sched.modulo.pipelined_frac": (
            len(pipelined) / len(outcomes) if outcomes else 0.0
        ),
        "sched.optimize.self_s": table.get("sched.optimize", {}).get("self_s", 0.0),
        **perf_layers(rows),
    }


def perf_layers(rows):
    """Mean static reduction and unstalled fraction: the two numbers that
    explain why the simulated speedup lands below the static gain."""
    n = len(rows) or 1
    return {
        "perf.static_reduction": sum(r["static_reduction"] for r in rows) / n,
        "perf.unstalled_frac": sum(r["unstalled_out"] for r in rows) / n,
    }


def pass_count(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


def _timed(workload, seed, seconds, import_s, record):
    """Untraced: three set-ups, then a fixed number of whole passes."""
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, features, routines = _setup(workload)
        setups.append(elapsed)
    warm_up(features)
    passes = [
        _compile_pass(features, routines)
        for _ in range(pass_count(workload, seconds))
    ]
    walls = [p[0] for p in passes]
    times = [t for p in passes for t in p[1]]
    checked = evaluate(routines, passes[-1][2], seed, SIM_INVOCATIONS[workload])
    routine_tail, tail_pct, samples = spans.tail(times)
    p50 = spans.median(times)
    record.update(
        import_s=import_s, setup_runs_s=setups, passes_s=walls,
        routine_times_s=[p[1] for p in passes],
        tail={"percentile": tail_pct, "samples": samples},
    )
    metrics = {
        "setup_s": import_s + spans.median(setups),
        "compile_s": spans.median(walls),
        "routine_p50_s": p50,
        "routine_tail_s": routine_tail,
        **quality_metrics(checked[0], len(routines)),
        "req_per_s": len(times) / sum(walls),
        "latency_p50_ms": 1000.0 * p50,
        "latency_tail_ms": 1000.0 * routine_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return features, routines, checked, metrics


def _traced(workload, seed, record):
    """One untraced pass, then a traced pass whose spans give the layers."""
    _elapsed, features, routines = _setup(workload)
    warm_up(features)
    untraced_wall = _compile_pass(features, routines)[0]
    obs.enable()
    try:
        with obs.span("bench.generate", workload=workload):
            CORPORA[workload]()  # again, so the layer table shows its cost
        wall, _times, results, pass_id = _compile_pass(features, routines)
        checked = evaluate(routines, results, seed, SIM_INVOCATIONS[workload])
        events = obs.snapshot()["events"]
    finally:
        obs.disable()
    tree = spans.SpanTree(events)
    table = tree.layer_table([pass_id])
    bench_self, attributed, accounted = spans.attribution(table, wall)
    checks = [i for i in tree.spans if i not in tree.parent and i != pass_id]
    record.update(
        layers=table, check_layers=tree.layer_table(checks),
        traced_pass_s=wall, untraced_pass_s=untraced_wall,
        accounted_frac=accounted,
    )
    if accounted < 1.0 - 1e-3:
        record.setdefault("notes", []).append(
            f"spans account for only {accounted:.4f} of the traced pass"
        )
    metrics = {
        **_layer_metrics(table, results, checked[0]),
        "obs.overhead_ratio": wall / untraced_wall,
        "obs.bench_self_s": bench_self,
        "obs.attributed_frac": attributed,
    }
    return features, routines, checked, metrics


def run(workload, seed, seconds, trace, import_s):
    """Run one compile workload; returns the result record."""
    record = {"workload": workload}
    if trace:
        features, routines, checked, metrics = _traced(workload, seed, record)
    else:
        features, routines, checked, metrics = _timed(
            workload, seed, seconds, import_s, record
        )
    rows, failures, oracle_seeds = checked
    undivided = [r["routine"] for r in rows if r["partitions"] < 2]
    if workload == "multi_region" and undivided:
        record.setdefault("notes", []).append(
            f"no longer decomposes, so sched.decompose is under-measured: "
            f"{undivided}"
        )
    record.update(
        metrics=metrics,
        features=features_record(features),
        routines=rows,
        failures=failures,
        oracle_seeds=list(oracle_seeds),
        attempted=len(routines),
        failed=len(failures),
    )
    return record


def features_record(features):
    return {
        k: list(v) if isinstance(v, tuple) else v
        for k, v in dataclasses.asdict(features).items()
    }
