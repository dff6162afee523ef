"""MetricsRegistry: bucketing, label series, merge, exports."""

import math

import pytest

from repro.obs.metrics import (
    BUCKET_BOUNDS,
    DEFAULT_BUCKETS,
    METRIC_HELP,
    MetricsRegistry,
    _bucket_index,
)


# -- bucket boundaries --------------------------------------------------------


def test_bucket_index_le_semantics():
    bounds = (1.0, 5.0, 10.0)
    assert _bucket_index(bounds, 0.5) == 0
    assert _bucket_index(bounds, 1.0) == 0  # le: boundary goes low
    assert _bucket_index(bounds, 1.0000001) == 1
    assert _bucket_index(bounds, 5.0) == 1
    assert _bucket_index(bounds, 10.0) == 2
    assert _bucket_index(bounds, 11.0) == 3  # +inf overflow slot
    assert _bucket_index(bounds, math.nan) == 3


def test_observe_uses_declared_bounds_and_default_fallback():
    reg = MetricsRegistry()
    reg.observe("solve_nodes", 7)
    hist = reg.histograms[("solve_nodes", ())]
    assert hist["bounds"] == tuple(float(b) for b in BUCKET_BOUNDS["solve_nodes"])
    reg.observe("undeclared_metric", 0.2)
    fallback = reg.histograms[("undeclared_metric", ())]
    assert fallback["bounds"] == DEFAULT_BUCKETS


def test_observe_accumulates_sum_count_and_buckets():
    reg = MetricsRegistry()
    for value in (0.0, 1.0, 2.0, 100.0):
        reg.observe("bundling_cuts_per_routine", value)
    hist = reg.histograms[("bundling_cuts_per_routine", ())]
    assert hist["count"] == 4
    assert hist["sum"] == 103.0
    # bounds (0,1,2,3,4,6,8,12,16): 0->slot0, 1->slot1, 2->slot2, 100->+inf
    assert hist["counts"][0] == 1
    assert hist["counts"][1] == 1
    assert hist["counts"][2] == 1
    assert hist["counts"][-1] == 1


# -- series and labels --------------------------------------------------------


def test_counter_series_split_by_labels():
    reg = MetricsRegistry()
    reg.counter_add("solves_total", backend="highs")
    reg.counter_add("solves_total", 2, backend="bb")
    reg.counter_add("solves_total", backend="highs")
    assert reg.counters[("solves_total", (("backend", "highs"),))] == 2.0
    assert reg.counters[("solves_total", (("backend", "bb"),))] == 2.0


def test_label_order_does_not_split_series():
    reg = MetricsRegistry()
    reg.counter_add("faults_fired_total", site="bundle", kind="error")
    reg.counter_add("faults_fired_total", kind="error", site="bundle")
    assert len(reg.counters) == 1


def test_gauge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge_set("queue_depth", 3)
    reg.gauge_set("queue_depth", 1)
    assert reg.gauges[("queue_depth", ())] == 1.0


# -- merge --------------------------------------------------------------------


def test_merge_state_adds_counters_and_buckets():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter_add("solves_total", 1, backend="highs")
    b.counter_add("solves_total", 3, backend="highs")
    a.observe("solve_seconds", 0.02)
    b.observe("solve_seconds", 0.02)
    b.observe("solve_seconds", 400.0)
    a.merge_state(b.to_state())
    assert a.counters[("solves_total", (("backend", "highs"),))] == 4.0
    hist = a.histograms[("solve_seconds", ())]
    assert hist["count"] == 3
    assert hist["counts"][1] == 2  # both 0.02s observations share a bucket
    assert hist["counts"][-1] == 1  # 400s lands in +inf


def test_merge_state_rejects_mismatched_bounds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.observe("solve_seconds", 1.0)
    b.observe("solve_seconds", 1.0)
    state = b.to_state()
    state["histograms"][0][2]["bounds"][0] = 123.0
    with pytest.raises(ValueError, match="bounds mismatch"):
        a.merge_state(state)


def test_merge_into_empty_registry_copies_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    b.observe("solve_nodes", 5)
    a.merge_state(b.to_state())
    assert a.histograms[("solve_nodes", ())]["count"] == 1


# -- exports ------------------------------------------------------------------


def test_as_dict_buckets_are_cumulative_with_inf():
    reg = MetricsRegistry()
    for value in (0.005, 0.02, 9000.0):
        reg.observe("solve_seconds", value)
    dump = reg.as_dict()
    hist = dump["histograms"]["solve_seconds"]
    assert hist["buckets"]["+Inf"] == 3
    assert hist["buckets"]["0.01"] == 1
    assert hist["buckets"]["300"] == 2  # 9000s only appears in +Inf
    assert hist["count"] == 3


def test_prometheus_text_shape():
    reg = MetricsRegistry()
    reg.counter_add("solves_total", 2, backend="highs")
    reg.gauge_set("queue_depth", 1)
    reg.observe("solve_seconds", 0.3)
    text = reg.prometheus_text()
    assert '# TYPE solves_total counter' in text
    assert 'solves_total{backend="highs"} 2' in text
    assert '# TYPE solve_seconds histogram' in text
    assert 'solve_seconds_bucket{le="+Inf"} 1' in text
    assert 'solve_seconds_count 1' in text


def test_prometheus_text_help_lines_precede_type():
    reg = MetricsRegistry()
    reg.counter_add("solves_total", 1, backend="bb")
    reg.counter_add("some_adhoc_total", 1)
    text = reg.prometheus_text()
    lines = text.splitlines()
    # Every family: exactly one HELP line directly above its TYPE line.
    for name in ("solves_total", "some_adhoc_total"):
        type_at = next(
            i for i, l in enumerate(lines) if l.startswith(f"# TYPE {name} ")
        )
        assert lines[type_at - 1].startswith(f"# HELP {name} ")
        assert sum(1 for l in lines if l.startswith(f"# HELP {name} ")) == 1
    assert f"# HELP solves_total {METRIC_HELP['solves_total']}" in text
    # Unregistered names still carry a generic HELP line.
    assert "# HELP some_adhoc_total some_adhoc_total (unregistered)" in text


def test_every_emitted_metric_has_help_text():
    # Scan the package for obs.counter/gauge/histogram calls. Each must
    # name its metric with a string literal (a computed name would hide
    # from this scan) and that name must carry a METRIC_HELP entry.
    import re
    from pathlib import Path

    call = re.compile(r"\bobs\.(?:counter|gauge|histogram)\(\s*")
    literal = re.compile(r'"([a-z0-9_]+)"')
    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    emitted, computed = set(), []
    for path in sorted(src.rglob("*.py")):
        text = path.read_text()
        for match in call.finditer(text):
            name = literal.match(text, match.end())
            if name is None:
                line = text.count("\n", 0, match.start()) + 1
                computed.append(f"{path.name}:{line}")
            else:
                emitted.add(name.group(1))
    assert not computed, computed
    assert len(emitted) >= 50
    assert sorted(emitted - set(METRIC_HELP)) == []


def test_prometheus_label_value_escaping():
    reg = MetricsRegistry()
    reg.counter_add(
        "routine_fallback_total",
        1,
        routine='we"ird\\name\nwith newline',
    )
    text = reg.prometheus_text()
    assert 'routine="we\\"ird\\\\name\\nwith newline"' in text
    assert "\nwith newline" not in text.replace("\\n", "")  # no raw newline
