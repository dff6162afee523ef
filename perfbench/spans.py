"""Metric extraction: percentiles, span trees, self time and attribution.

Pure functions over plain data (lists of numbers, span event dicts as
:func:`repro.obs.core.snapshot` returns them), so the self-test can feed
them hand-made inputs.
"""

from __future__ import annotations

import statistics

# Program span name -> layer (module) name.  Spans not listed here (the
# solver's own ``ilp.solve``/``presolve``, the client's ``client.solve``)
# fold into the nearest listed ancestor.
PROGRAM_LAYERS = {
    "optimize": "sched.optimize",
    "analyze": "ir.analyze",
    "input_schedule": "sched.list_scheduler.input",
    "ilp.build": "sched.ilp_formulation.build",
    "solve.phase1": "ilp.highs.phase1",
    "solve.cut_resolve": "ilp.highs.cut_resolve",
    "solve.phase2": "sched.phase2.solve",
    "bundle": "bundle.bundler",
    "verify": "sched.verifier.verify",
    "decompose": "sched.decompose",
    "swp.ladder": "sched.modulo.ladder",
    "swp.solve_ii": "sched.modulo.solve_ii",
    "swp.fallback": "sched.modulo.fallback",
    "swp.materialize": "sched.modulo.materialize",
    "swp.oracle": "sched.modulo.oracle",
}

# The benchmark's own spans, around its calls into public functions.
BENCH_LAYERS = {
    "bench.pass": "bench",
    "bench.generate": "workloads.generator",
    "bench.optimize": "bench",
    "bench.simulate": "perf.pipeline",
    "bench.interpret": "ir.interp",
    "bench.client_solve": "serve.client",
}

LAYERS = {**PROGRAM_LAYERS, **BENCH_LAYERS}


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """``(value, percentile, samples)`` of the tail of ``values``.

    The tail is the highest percentile with at least ten samples beyond
    it.  Below eleven samples no percentile qualifies and the maximum is
    returned, with percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = n - 11 if n >= 11 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def union_length(intervals):
    """Total length covered by ``[(start, end), ...]``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanTree:
    """Parent/child structure over finished span events.

    Events are ``{"id", "name", "ts", "dur", "tid", "parent"?}`` dicts.
    A root on a thread where the benchmark opened no span of its own (a
    partition solved in the decomposer's thread pool) is adopted by the
    shortest span on a benchmark thread whose interval contains it.
    """

    def __init__(self, events):
        spans = [ev for ev in events if ev.get("type", "span") == "span"]
        self.spans = {ev["id"]: ev for ev in spans}
        self.children = {ev["id"]: [] for ev in spans}
        self.parent = {}
        home_tids = {ev["tid"] for ev in spans if ev["name"] in BENCH_LAYERS}
        home = [ev for ev in spans if ev["tid"] in home_tids]
        for ev in spans:
            parent = ev.get("parent")
            if parent not in self.spans:
                parent = None
                if ev["tid"] not in home_tids:
                    adopter = _container(ev, home)
                    parent = None if adopter is None else adopter["id"]
            if parent is not None:
                self.parent[ev["id"]] = parent
                self.children[parent].append(ev["id"])

    def self_time(self, span_id):
        """Duration minus the part of it covered by child spans."""
        ev = self.spans[span_id]
        start, end = ev["ts"], ev["ts"] + ev["dur"]
        covered = union_length(
            (max(start, c["ts"]), min(end, c["ts"] + c["dur"]))
            for c in (self.spans[i] for i in self.children[span_id])
            if c["ts"] < end and c["ts"] + c["dur"] > start
        )
        return max(0.0, ev["dur"] - covered)

    def subtree(self, span_id):
        out, stack = [], [span_id]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self.children[current])
        return out

    def layer_of(self, span_id):
        """The layer a span's self time counts toward: its own, or the
        nearest ancestor's when its name is not a listed layer."""
        current = span_id
        while current is not None:
            layer = LAYERS.get(self.spans[current]["name"])
            if layer is not None:
                return layer
            current = self.parent.get(current)
        return "unlisted"

    def layer_table(self, root_ids):
        """``{layer: {"self_s", "total_s", "count"}}`` under ``root_ids``."""
        table = {}
        for root in root_ids:
            for span_id in self.subtree(root):
                ev = self.spans[span_id]
                layer = self.layer_of(span_id)
                slot = table.setdefault(
                    layer, {"self_s": 0.0, "total_s": 0.0, "count": 0}
                )
                slot["self_s"] += self.self_time(span_id)
                if LAYERS.get(ev["name"]) == layer:
                    slot["total_s"] += ev["dur"]
                    slot["count"] += 1
        return table


def _container(ev, candidates):
    """The shortest of ``candidates`` whose interval contains ``ev``."""
    start, end = ev["ts"], ev["ts"] + ev["dur"]
    best = None
    for other in candidates:
        if other["ts"] <= start and end <= other["ts"] + other["dur"]:
            if best is None or other["dur"] < best["dur"]:
                best = other
    return best


def attribution(table, wall_s):
    """Account for a traced pass's wall time by layer self time.

    Returns ``(bench_self_s, attributed_frac, accounted_frac)``:
    ``bench_self_s`` is time inside the benchmark's own loop and call
    wrappers that no program span covers (the unattributed gap);
    ``attributed_frac`` is program-layer self time over the wall time
    (above 1 when partitions solve in parallel); ``accounted_frac`` adds
    the gap back and must reach 1 when the span tree is complete.
    """
    bench = table.get("bench", {}).get("self_s", 0.0)
    program = sum(slot["self_s"] for slot in table.values()) - bench
    if wall_s <= 0:
        return bench, 0.0, 0.0
    return bench, program / wall_s, (program + bench) / wall_s
