"""HTML dashboard: renders from every artifact form, stays self-contained."""

import json
from html import escape

import pytest

from repro.ir.parser import parse_function
from repro.obs import dashboard, export
from repro.obs.metrics import METRIC_HELP
from repro.sched.scheduler import ScheduleFeatures, optimize_function

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


@pytest.fixture
def recorded_run(recording):
    fn = parse_function(CUT_TRIGGER)
    optimize_function(fn, ScheduleFeatures(time_limit=30))
    return recording


def test_dashboard_from_recorder_has_all_sections(recorded_run):
    html = dashboard.dashboard_from_recorder()
    assert dashboard.validate_self_contained(html) == []
    for section in (
        "Span waterfall", "Gap timelines", "Bundling-cut effectiveness",
        "Paper metrics", "Metrics",
    ):
        assert section in html, section
    # The traced fbound run yields actual chart content, not fallbacks.
    assert "polyline" in html          # gap convergence plot
    assert "bound delta" in html       # cut table rendered
    assert "fbound" in html            # paper-metric row


def test_dashboard_from_artifact_files(recorded_run, tmp_path):
    trace_path = tmp_path / "trace.json"
    events_path = tmp_path / "events.jsonl"
    metrics_path = tmp_path / "metrics.json"
    export.write_chrome_trace(trace_path)
    export.write_jsonl(events_path)
    export.write_metrics(metrics_path)
    kinds = {}
    payloads = {}
    for path in (trace_path, events_path, metrics_path):
        kind, payload = dashboard.load_artifact(path)
        kinds[path.name] = kind
        payloads[path.name] = payload
    assert kinds == {
        "trace.json": "trace",
        "events.jsonl": "trace",
        "metrics.json": "metrics",
    }
    for source in ("trace.json", "events.jsonl"):
        html = dashboard.render_dashboard(
            trace=payloads[source], metrics=payloads["metrics.json"]
        )
        assert dashboard.validate_self_contained(html) == []
        assert "polyline" in html and "fbound" in html


def test_write_dashboard_refuses_external_references(tmp_path):
    # A span attribute smuggling in an external URL must be caught.
    poisoned = {
        "traceEvents": [{
            "name": "optimize", "ph": "X", "pid": 1, "tid": 0,
            "ts": 0.0, "dur": 10.0,
            "args": {"routine": "see https://evil.example/x"},
        }]
    }
    html = dashboard.render_dashboard(trace=poisoned)
    problems = dashboard.validate_self_contained(html)
    assert problems and "https://" in problems[0]
    with pytest.raises(ValueError, match="self-contained"):
        dashboard.write_dashboard(tmp_path / "dash.html", trace=poisoned)


def test_empty_inputs_degrade_to_notes():
    html = dashboard.render_dashboard()
    assert dashboard.validate_self_contained(html) == []
    assert "no spans recorded" in html
    assert "no gap timelines recorded" in html
    assert "no metrics dump provided" in html


def test_load_artifact_rejects_unknown_shape(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"not": "an artifact"}))
    with pytest.raises(ValueError):
        dashboard.load_artifact(path)


# One dump that feeds every panel, the catch-all included.
MIXED = {
    "counters": {
        'cache_hits_total{kind="exact"}': 6.0,
        'cache_hits_total{kind="miss"}': 2.0,
        "coalesced_requests_total": 2.0,
        'serve_shed_total{reason="queue_full"}': 1.0,
        "decompose_partitions_total": 4.0,
        "partition_cache_hits_total": 3.0,
        "partition_cache_misses_total": 1.0,
        'swp_loops_total{status="pipelined"}': 3.0,
        'swp_loops_total{status="unpipelined"}': 1.0,
        'swp_oracle_total{result="pass"}': 3.0,
        'swp_fallbacks_total{reason="not_counted"}': 1.0,
        "swp_cache_hits_total": 1.0,
        'solves_total{backend="highs"}': 5.0,
    },
    "gauges": {"cache_size_bytes": 4096.0, "serve_inflight": 1.0},
    "histograms": {
        'serve_request_seconds{kind="exact"}': {
            "buckets": {"+Inf": 6}, "sum": 0.06, "count": 6,
        },
        "partition_solve_seconds": {
            "buckets": {"+Inf": 4}, "sum": 2.0, "count": 4,
        },
        "swp_ii_over_mii": {"buckets": {"+Inf": 3}, "sum": 3.3, "count": 3},
        'solve_seconds{backend="highs"}': {
            "buckets": {"+Inf": 5}, "sum": 1.0, "count": 5,
        },
    },
}


def _panels(html):
    """Panel title -> that panel's HTML (up to the next panel)."""
    chunks = html.split("<h3>")[1:]
    return {
        chunk.split("</h3>", 1)[0]: chunk.split("</h3>", 1)[1].strip()
        for chunk in chunks
    }


@pytest.mark.parametrize(
    "title,prefixes",
    dashboard.PANELS,
    ids=[t.lower().replace(" ", "_") for t, _ in dashboard.PANELS],
)
def test_panel_renders_and_degrades(title, prefixes):
    html = dashboard.render_dashboard(metrics=MIXED)
    assert dashboard.validate_self_contained(html) == []
    body = _panels(html)[title]
    names = {key.split("{")[0] for series in MIXED.values() for key in series}
    claimed = sorted(n for n in names if n.startswith(prefixes))
    assert claimed
    for name in claimed:
        assert f">{name}<" in body
        assert f">{escape(METRIC_HELP[name])}<" in body
    assert "no series recorded" not in body
    for metrics in (None, {"counters": {}, "gauges": {}}):
        html = dashboard.render_dashboard(metrics=metrics)
        assert dashboard.validate_self_contained(html) == []
        assert _panels(html)[title] == "<p class='note'>no series recorded</p>"


def test_every_series_lands_in_exactly_one_panel():
    panels = _panels(dashboard.render_dashboard(metrics=MIXED))
    assert list(panels) == [t for t, _ in dashboard.PANELS] + ["Other series"]
    for section in MIXED.values():
        for key in section:
            name, _, labels = key.partition("{")
            homes = [t for t, body in panels.items() if f">{name}<" in body]
            assert len(homes) == 1, (key, homes)
            if labels:
                value = labels.split('"')[1]
                assert f"&nbsp;&nbsp;{value}<" in panels[homes[0]], key


def test_cache_panel_renders_from_metrics():
    body = _panels(dashboard.render_dashboard(metrics=MIXED))["Schedule cache"]
    # The hit mix: one stacked bar plus each kind's share of requests.
    assert "<title>exact: 6</title>" in body
    assert "<title>miss: 2</title>" in body
    assert "<td>75.0%</td>" in body and "<td>25.0%</td>" in body
    assert f">{escape(METRIC_HELP['coalesced_requests_total'])}<" in body


def test_cache_panel_shows_partition_rows():
    panels = _panels(dashboard.render_dashboard(metrics=MIXED))
    body = panels["Region decomposition"]
    # Partition cache hits and misses side by side, and the mean
    # per-partition solve time (4 solves, 2 s).
    assert ">partition_cache_hits_total</td><td>3</td>" in body
    assert ">partition_cache_misses_total</td><td>1</td>" in body
    assert (
        ">partition_solve_seconds</td><td>4</td><td>2</td><td>0.5</td>"
        in body
    )
    assert "partition_" not in panels["Schedule cache"]


def test_swp_panel_renders_from_metrics():
    body = _panels(dashboard.render_dashboard(metrics=MIXED))[
        "Software pipelining"
    ]
    # Pipelined share, oracle pass/fail, fallback mix and mean II/MII.
    assert ";pipelined</td><td></td><td>3</td><td>75.0%</td>" in body
    assert ";pass</td><td></td><td>3</td><td>100.0%</td>" in body
    assert "<title>not_counted: 1</title>" in body
    assert ">swp_ii_over_mii</td><td>3</td><td>3.3</td><td>1.1</td>" in body
