"""Workloads and metric definitions: the one source of ``BENCHMARK.json``.

``python3 perfbench/run.py --manifest`` writes ``BENCHMARK.json`` from
the tables below, and the self-test checks that the committed file still
matches them, so a metric cannot be renamed in one place only.
"""

from __future__ import annotations

import json

RUN_SECONDS = 15

# The workloads ``BENCHMARK.json`` lists: each run of one takes well
# under a minute, so the repeated runs a comparison needs stay
# affordable on a 2-core host.
WORKLOADS = (
    ("loop_corpus",
     "20 loop-dominated routines compiled with software pipelining; many small "
     "solves, so per-solve fixed costs and the modulo II ladder show"),
    ("multi_region",
     "multi-region routines that all split into five partitions; the only "
     "workload where region decomposition runs"),
    ("fleet_mix",
     "closed-loop mix of cache hits, profile variants and first-seen routines "
     "against a tia-serve daemon; exercises every serving layer"),
)

# Runnable with ``--workload`` but not listed in ``BENCHMARK.json``: one
# pass over the paper's routines takes 35-50 s, so the repeated runs of
# a comparison would not fit its time budget next to the others.  Its
# layers (phase-1 HiGHS, phase 2, the verifier) are measured on the
# listed compile workloads too; this one gives the Table-2 rows.
EXTRA_WORKLOADS = (
    ("paper_scale",
     "the paper's seven calibrated routines at scale 1.0 with the paper-table "
     "features; phase-1 HiGHS solves dominate, so model shrinking shows"),
)

# (name, unit, better, bound).  ``bound`` is the share of the parent's
# median a metric may worsen before a change counts as a regression.
# Timings get 0.25, the most the format allows: on the 2-core host the
# benchmark was written on, the same work ran up to a third slower for
# minutes at a time.  The daemon's peak RSS follows the largest cold
# solve a run reaches.  Schedule quality is deterministic per code version.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("compile_s", "s", "lower", 0.25),
    ("routine_p50_s", "s", "lower", 0.25),
    ("routine_tail_s", "s", "lower", 0.25),
    ("weighted_cycles", "cycles", "lower", 0.05),
    ("sim_speedup", "ratio", "higher", 0.1),
    ("loop_cycles", "cycles", "lower", 0.05),
    ("bundles_out", "count", "lower", 0.05),
    ("optimal_frac", "ratio", "higher", 0.05),
    ("req_per_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.25),
)

# (name, unit, better).  Span-derived ``*_s`` values are inclusive span
# time summed over the traced pass; ``*.self_s`` excludes child layers.
PER_LAYER = (
    ("ir.analyze_s", "s", "lower"),
    ("sched.list_scheduler.input_s", "s", "lower"),
    ("sched.ilp_formulation.build_s", "s", "lower"),
    ("sched.ilp_formulation.builds", "count", "lower"),
    ("ilp.rows", "count", "lower"),
    ("ilp.cols", "count", "lower"),
    ("ilp.highs.phase1_s", "s", "lower"),
    ("ilp.highs.phase1_nodes", "count", "lower"),
    ("ilp.highs.lp_solves", "count", "lower"),
    ("ilp.highs.cut_resolve_s", "s", "lower"),
    ("ilp.highs.cut_resolves", "count", "lower"),
    ("ilp.warm_start_hit_frac", "ratio", "higher"),
    ("sched.phase2.solve_s", "s", "lower"),
    ("sched.phase2.applied_frac", "ratio", "higher"),
    ("bundle.bundler_s", "s", "lower"),
    ("bundle.bundler_calls", "count", "lower"),
    ("sched.verifier.verify_s", "s", "lower"),
    ("sched.verifier.paths", "count", "lower"),
    ("sched.decompose.s", "s", "lower"),
    ("sched.decompose.self_s", "s", "lower"),
    ("sched.decompose.partitions", "count", "higher"),
    ("sched.modulo.ladder_s", "s", "lower"),
    ("sched.modulo.ladder.self_s", "s", "lower"),
    ("sched.modulo.solve_ii_s", "s", "lower"),
    ("sched.modulo.rungs", "count", "lower"),
    ("sched.modulo.fallback_s", "s", "lower"),
    ("sched.modulo.materialize_s", "s", "lower"),
    ("sched.modulo.oracle_s", "s", "lower"),
    ("sched.modulo.ii_at_mii_frac", "ratio", "higher"),
    ("sched.modulo.pipelined_frac", "ratio", "higher"),
    ("sched.optimize.self_s", "s", "lower"),
    ("perf.static_reduction", "ratio", "higher"),
    ("perf.unstalled_frac", "ratio", "higher"),
    ("serve.exact_frac", "ratio", "higher"),
    ("serve.family_frac", "ratio", "higher"),
    ("serve.miss_frac", "ratio", "lower"),
    ("serve.coalesced", "count", "higher"),
    ("serve.exact_ms_p50", "ms", "lower"),
    ("serve.family_ms_p50", "ms", "lower"),
    ("serve.miss_ms_p50", "ms", "lower"),
    ("serve.fleet.queue_wait_ms_p50", "ms", "lower"),
    ("serve.service.solve_ms_p50", "ms", "lower"),
    ("serve.fleet.overhead_ms_p50", "ms", "lower"),
    ("serve.protocol.client_overhead_ms_p50", "ms", "lower"),
    ("serve.lookup_ms", "ms", "lower"),
    ("serve.revalidate_ms", "ms", "lower"),
    ("serve.store_ms", "ms", "lower"),
    ("serve.store.entries", "count", "lower"),
    ("serve.store.bytes", "bytes", "lower"),
    ("obs.overhead_ratio", "ratio", "lower"),
    ("obs.bench_self_s", "s", "lower"),
    ("obs.attributed_frac", "ratio", "higher"),
)

def manifest():
    """The ``BENCHMARK.json`` document, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }


def manifest_text():
    return json.dumps(manifest(), indent=2) + "\n"
