"""Self-contained HTML dashboard over the observability artifacts.

Renders, from a recorder (live) or from exported artifact files
(Chrome trace / JSONL event log / metrics dump), a single static HTML
page with:

* a per-process **span waterfall** (the phase breakdown of every routine
  lane, pool workers included),
* **gap-timeline** charts — one incumbent/best-bound convergence plot
  per solve span that carried a ``gap_timeline`` attribute,
* **cut-effectiveness bars** from ``cut.effect`` instant events (bound
  delta and re-solve cost per appended bundling cut),
* the **paper-metric table** (Table 1/2 shape) aggregated from the
  ``paper_metrics`` attribute of every ``optimize`` span,
* the **fleet-telemetry panel** — outcome mix, reconstructed counters
  and per-family activity from a telemetry-journal rollup
  (:func:`repro.obs.telemetry.journal_rollup`), when one is given,
* the **metric panels** over the metrics dump — one per :data:`PANELS`
  entry (schedule cache, region decomposition, software pipelining)
  plus "Other series" for every family no prefix claims, each built by
  :func:`repro.obs.insight.metric_families` and labelled with the
  family's ``METRIC_HELP`` text.

The page is **zero-dependency and self-contained by construction**: all
styling is one inline ``<style>`` block, all charts are inline SVG, and
there is no JavaScript, no external fetch, no image, no font.  CI builds
it from the traced smoke run and :func:`validate_self_contained` rejects
any external reference that would make the artifact phone home.
"""

from __future__ import annotations

import html
import itertools
import json

from repro.obs.insight import aggregate_paper_metrics, metric_families
from repro.obs.metrics import METRIC_HELP

# Substrings that would make the page reach outside itself. ``src=`` and
# ``url(`` cover images/fonts/CSS imports; ``<script`` bans JS outright
# (the page must render identically with JS disabled).
_EXTERNAL_MARKERS = (
    "http://", "https://", "src=", "<link", "<script", "@import", "url(",
)

_CSS = """
body { font-family: monospace; margin: 1.5em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.6em 0; }
th, td { border: 1px solid #bbb; padding: 2px 8px; text-align: right; }
th { background: #eee; } td.name { text-align: left; }
svg { background: #fafafa; border: 1px solid #ddd; }
.lane { font-size: 0.85em; color: #555; margin-top: 1em; }
.note { color: #777; font-size: 0.85em; }
"""


def _esc(value):
    return html.escape(str(value), quote=True)


def _fmt(value):
    """Compact numeric rendering for table cells."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# -- input normalization ------------------------------------------------------
def _normalize_events(doc):
    """Flatten any supported artifact into span/instant event dicts.

    Accepts a Chrome ``trace_event`` document (``{"traceEvents": [...]}``),
    a list of recorder-style event dicts (the JSONL lines, meta line
    included or not), or ``None``.  Output events carry ``name``, ``ph``
    (``"X"`` span / ``"i"`` instant), ``pid``, ``ts_us``, ``dur_us`` and
    ``args``.
    """
    if doc is None:
        return []
    if isinstance(doc, dict):
        raw = doc.get("traceEvents", [])
    else:
        raw = doc
    events = []
    for ev in raw:
        if not isinstance(ev, dict) or ev.get("type") == "meta":
            continue
        if "ph" in ev:  # chrome trace form (microseconds)
            ph = ev["ph"]
            if ph == "M":
                continue
            events.append({
                "name": ev.get("name", "?"),
                "ph": "X" if ph == "X" else "i",
                "pid": ev.get("pid", 0),
                "ts_us": float(ev.get("ts", 0.0)),
                "dur_us": float(ev.get("dur", 0.0)),
                "args": ev.get("args", {}) or {},
            })
        else:  # recorder / JSONL form (seconds)
            kind = "X" if ev.get("type") == "span" else "i"
            events.append({
                "name": ev.get("name", "?"),
                "ph": kind,
                "pid": ev.get("pid", 0),
                "ts_us": float(ev.get("ts", 0.0)) * 1e6,
                "dur_us": float(ev.get("dur", 0.0) or 0.0) * 1e6,
                "args": ev.get("args", {}) or {},
            })
    return events


def load_artifact(path):
    """Parse one artifact file into ``("trace"|"metrics", payload)``.

    Detects the three on-disk formats the exporters produce: a Chrome
    trace (object with ``traceEvents``), a metrics dump (object with
    ``counters``/``gauges``/``histograms``) and a JSONL event log.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        doc = json.loads(text)
    except ValueError:
        doc = [json.loads(line) for line in text.splitlines() if line.strip()]
        return "trace", doc
    if isinstance(doc, dict) and "traceEvents" in doc:
        return "trace", doc
    if isinstance(doc, dict) and "counters" in doc:
        return "metrics", doc
    raise ValueError(f"{path}: not a trace, event log or metrics dump")


# -- sections -----------------------------------------------------------------
def _waterfall_svg(events, max_rows=80):
    """Per-pid span waterfall: one SVG, one lane block per process."""
    spans = [ev for ev in events if ev["ph"] == "X"]
    if not spans:
        return "<p class='note'>no spans recorded</p>"
    t0 = min(ev["ts_us"] for ev in spans)
    t1 = max(ev["ts_us"] + ev["dur_us"] for ev in spans)
    width, row_h, label_w = 940.0, 14, 220
    scale = (width - label_w - 10) / max(t1 - t0, 1.0)
    by_pid = {}
    for ev in spans:
        by_pid.setdefault(ev["pid"], []).append(ev)
    parts = []
    dropped = 0
    for pid in sorted(by_pid):
        rows = sorted(by_pid[pid], key=lambda ev: ev["ts_us"])
        if len(rows) > max_rows:
            dropped += len(rows) - max_rows
            rows = rows[:max_rows]
        height = row_h * len(rows) + 4
        parts.append(f"<div class='lane'>pid {_esc(pid)}</div>")
        parts.append(
            f"<svg width='{width:.0f}' height='{height}' "
            f"viewBox='0 0 {width:.0f} {height}'>"
        )
        for i, ev in enumerate(rows):
            x = label_w + (ev["ts_us"] - t0) * scale
            w = max(ev["dur_us"] * scale, 1.0)
            y = 2 + i * row_h
            routine = ev["args"].get("routine", "")
            label = ev["name"] + (f" [{routine}]" if routine else "")
            ms = ev["dur_us"] / 1000.0
            parts.append(
                f"<text x='2' y='{y + 10}' font-size='10'>"
                f"{_esc(label)[:34]}</text>"
                f"<rect x='{x:.1f}' y='{y}' width='{w:.1f}' "
                f"height='{row_h - 3}' fill='#4a7db3'>"
                f"<title>{_esc(label)}: {ms:.3f} ms</title></rect>"
            )
        parts.append("</svg>")
    if dropped:
        parts.append(
            f"<p class='note'>{dropped} spans beyond the first "
            f"{max_rows} per process not drawn</p>"
        )
    return "\n".join(parts)


def _timeline_svg(timeline, label):
    """One gap-convergence chart (gap over elapsed seconds)."""
    samples = timeline.get("samples", [])
    points = [
        (s["t"], s["gap"]) for s in samples if s.get("gap") is not None
    ]
    width, height, pad = 460.0, 120.0, 24.0
    t_max = max((s["t"] for s in samples), default=0.0) or 1e-9
    g_max = max((g for _, g in points), default=0.0) or 1.0
    sx = (width - 2 * pad) / t_max
    sy = (height - 2 * pad) / g_max

    def xy(t, g):
        return pad + t * sx, height - pad - g * sy

    parts = [
        f"<svg width='{width:.0f}' height='{height:.0f}' "
        f"viewBox='0 0 {width:.0f} {height:.0f}'>",
        f"<text x='{pad}' y='14' font-size='11'>{_esc(label)}</text>",
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' "
        f"y2='{height - pad}' stroke='#999'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' "
        f"stroke='#999'/>",
    ]
    if points:
        coords = " ".join(
            f"{x:.1f},{y:.1f}" for x, y in (xy(t, g) for t, g in points)
        )
        parts.append(
            f"<polyline points='{coords}' fill='none' "
            f"stroke='#b33a3a' stroke-width='1.5'/>"
        )
        for t, g in points:
            x, y = xy(t, g)
            parts.append(
                f"<circle cx='{x:.1f}' cy='{y:.1f}' r='2.5' fill='#b33a3a'>"
                f"<title>t={t:.4g}s gap={g:.4g}</title></circle>"
            )
    status = timeline.get("status") or (
        "closed" if timeline.get("closed") else "OPEN"
    )
    final = timeline.get("final_gap")
    summary = (
        f"{len(samples)} samples, {_fmt(final)} final gap, {_esc(status)}"
    )
    parts.append(
        f"<text x='{pad}' y='{height - 6}' font-size='10' fill='#555'>"
        f"{summary}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts)


def _gap_section(events):
    charts = []
    for ev in events:
        timeline = ev["args"].get("gap_timeline")
        if not isinstance(timeline, dict) or not timeline.get("samples"):
            continue
        routine = ev["args"].get("routine", "")
        label = ev["name"] + (f" [{routine}]" if routine else "")
        charts.append(_timeline_svg(timeline, label))
    if not charts:
        return "<p class='note'>no gap timelines recorded</p>"
    return "\n".join(charts)


def _cut_section(events):
    effects = [
        ev["args"] for ev in events
        if ev["ph"] == "i" and ev["name"] == "cut.effect"
    ]
    if not effects:
        return "<p class='note'>no bundling cuts recorded</p>"
    max_cost = max(
        (float(e.get("resolve_seconds") or 0.0) for e in effects),
        default=0.0,
    ) or 1e-9
    rows = []
    for e in effects:
        cost = float(e.get("resolve_seconds") or 0.0)
        bar_w = max(1.0, 160.0 * cost / max_cost)
        bar = (
            f"<svg width='170' height='12' viewBox='0 0 170 12'>"
            f"<rect x='0' y='1' width='{bar_w:.1f}' height='10' "
            f"fill='#4a7db3'><title>{cost:.4g} s</title></rect></svg>"
        )
        rows.append(
            "<tr>"
            f"<td>{_fmt(e.get('cut_index'))}</td>"
            f"<td>{_fmt(e.get('members'))}</td>"
            f"<td>{_fmt(e.get('bound_delta'))}</td>"
            f"<td>{_fmt(float(e.get('resolve_seconds') or 0.0))}</td>"
            f"<td>{_fmt(e.get('resolve_nodes'))}</td>"
            f"<td class='name'>{_esc(e.get('resolve_status', '-'))}</td>"
            f"<td class='name'>{bar}</td>"
            "</tr>"
        )
    return (
        "<table><tr><th>cut</th><th>members</th><th>bound delta</th>"
        "<th>re-solve s</th><th>nodes</th><th>status</th>"
        "<th>cost</th></tr>" + "".join(rows) + "</table>"
    )


_PAPER_COLUMNS = (
    ("quality", "quality"),
    ("static_reduction", "static red."),
    ("weighted_ipc_in", "IPC in"),
    ("weighted_ipc_out", "IPC out"),
    ("instructions_in", "ins in"),
    ("instructions_out", "ins out"),
    ("delta_bundles", "Δbundles"),
    ("nop_density_out", "nop dens."),
    ("compensation_copies", "comp. copies"),
    ("spec_possible", "spec poss."),
    ("spec_used", "spec used"),
)


def _paper_section(events):
    rows = []
    for ev in events:
        paper = ev["args"].get("paper_metrics")
        if isinstance(paper, dict) and paper.get("routine"):
            rows.append(paper)
    if not rows:
        return "<p class='note'>no paper metrics recorded</p>"
    summary = aggregate_paper_metrics(rows)
    header = "<tr><th>routine</th>" + "".join(
        f"<th>{_esc(label)}</th>" for _, label in _PAPER_COLUMNS
    ) + "</tr>"
    body = []
    for row in rows:
        cells = "".join(
            f"<td class='name'>{_esc(row.get(key, '-'))}</td>"
            if key == "quality" else f"<td>{_fmt(row.get(key))}</td>"
            for key, _ in _PAPER_COLUMNS
        )
        body.append(f"<tr><td class='name'>{_esc(row['routine'])}</td>"
                    f"{cells}</tr>")
    agg_cells = []
    for key, _ in _PAPER_COLUMNS:
        if key == "quality":
            tiers = summary["by_quality"]
            agg_cells.append(
                "<td class='name'>"
                + _esc(",".join(f"{k}:{v}" for k, v in sorted(tiers.items())))
                + "</td>"
            )
        elif key in summary["average"]:
            agg_cells.append(f"<td>{_fmt(summary['average'][key])}</td>")
        elif key in summary["total"]:
            agg_cells.append(f"<td>{_fmt(summary['total'][key])}</td>")
        else:
            agg_cells.append("<td>-</td>")
    body.append(
        f"<tr><th>avg/total ({summary['routines']})</th>"
        + "".join(agg_cells) + "</tr>"
    )
    return f"<table>{header}{''.join(body)}</table>"


# Subsystem panels of the Metrics section: (title, metric-name prefixes).
# A family belongs to the first panel with a matching prefix; the rest
# land in a trailing "Other series" panel, so each series prints once.
PANELS = (
    ("Schedule cache", ("cache_", "coalesced_", "serve_")),
    ("Region decomposition", ("decompose_", "partition_")),
    ("Software pipelining", ("swp_",)),
)

_MIX_COLORS = (
    "#3a8f3a", "#c9a23a", "#b33a3a", "#7a5fb0", "#b06a3a", "#4a7db3",
)


def _mix_bar(parts, total):
    """One stacked bar of ``(label, count)`` parts, each its share of total."""
    x, rects = 0.0, []
    for (label, count), color in zip(parts, itertools.cycle(_MIX_COLORS)):
        w = 400.0 * count / (total or 1)
        if w > 0:
            rects.append(
                f"<rect x='{x:.1f}' y='1' width='{max(w, 1.0):.1f}' "
                f"height='14' fill='{color}'>"
                f"<title>{_esc(label)}: {count:g}</title></rect>"
            )
            x += w
    return (
        "<svg width='410' height='16' viewBox='0 0 410 16'>"
        + "".join(rects) + "</svg>"
    )


def _hist_cells(stats):
    return "".join(
        f"<td>{_fmt(stats[key])}</td>" for key in ("count", "sum", "mean")
    )


def _panel(families):
    """One metric panel: a counter/gauge table and a histogram table.

    Rows are labelled with the family's ``METRIC_HELP`` text; each label
    value gets a sub-row, and a labelled counter family its shares plus
    one stacked mix bar.
    """
    if not families:
        return "<p class='note'>no series recorded</p>"
    values, hists = [], []
    for name, fam in families.items():
        head = (
            f"<td class='name'>{_esc(METRIC_HELP.get(name, name))}</td>"
            f"<td class='name'>{_esc(name)}</td>"
        )
        subs = sorted(fam["by_label"].items())
        if fam["kind"] == "histogram":
            hists.append(f"<tr>{head}{_hist_cells(fam)}</tr>")
            hists.extend(
                f"<tr><td class='name'>&nbsp;&nbsp;{_esc(value)}</td><td></td>"
                f"{_hist_cells(stats)}</tr>"
                for value, stats in subs
            )
            continue
        total = fam["total"]
        mix = fam["kind"] == "counter" and subs and total
        bar = _mix_bar(subs, total) if mix else ""
        values.append(
            f"<tr>{head}<td>{_fmt(total)}</td><td class='name'>{bar}</td></tr>"
        )
        values.extend(
            f"<tr><td class='name'>&nbsp;&nbsp;{_esc(value)}</td><td></td>"
            f"<td>{_fmt(count)}</td>"
            f"<td>{f'{count / total:.1%}' if mix else ''}</td></tr>"
            for value, count in subs
        )
    parts = []
    if values:
        parts.append(
            "<table><tr><th>series</th><th>metric</th><th>value</th>"
            f"<th>share</th></tr>{''.join(values)}</table>"
        )
    if hists:
        parts.append(
            "<table><tr><th>series</th><th>metric</th><th>count</th>"
            f"<th>sum</th><th>mean</th></tr>{''.join(hists)}</table>"
        )
    return "".join(parts)


def _telemetry_section(telemetry):
    """Fleet-telemetry panel from a journal rollup dict."""
    if not telemetry or not telemetry.get("records"):
        return "<p class='note'>no telemetry journal provided</p>"
    outcomes = telemetry.get("outcomes") or {}
    svg = _mix_bar(
        [(outcome, outcomes.get(outcome, 0))
         for outcome in ("ok", "busy", "error", "drained", "fault")],
        telemetry.get("requests") or 0,
    )
    counters = telemetry.get("counters") or {}
    latency = telemetry.get("latency") or {}
    total_lat = latency.get("total") or {}
    queue_lat = latency.get("queue_wait") or {}
    rows = "".join(
        f"<tr><td class='name'>{_esc(label)}</td><td>{_fmt(value)}</td></tr>"
        for label, value in (
            ("journal records", telemetry.get("records")),
            ("request exits (non-probe)", telemetry.get("requests")),
            ("distinct traces", telemetry.get("distinct_traces")),
            ("completed", counters.get("completed")),
            ("rejected", counters.get("rejected")),
            ("shed (busy)", counters.get("shed")),
            ("drained", counters.get("drained")),
            ("probes", counters.get("probes")),
            ("cache hit rate", telemetry.get("cache_hit_rate")),
            ("p99 total (s)", total_lat.get("p99_seconds")),
            ("p99 queue wait (s)", queue_lat.get("p99_seconds")),
            ("journal write errors", telemetry.get("write_errors")),
        )
    )
    families = telemetry.get("families") or {}
    family_rows = "".join(
        "<tr>"
        f"<td class='name'>{_esc(family[:16])}</td>"
        f"<td>{_fmt(entry.get('requests'))}</td>"
        f"<td>{_fmt((entry.get('cache_kinds') or {}).get('exact', 0))}</td>"
        f"<td>{_fmt((entry.get('cache_kinds') or {}).get('miss', 0))}</td>"
        "</tr>"
        for family, entry in sorted(
            families.items(), key=lambda kv: -(kv[1].get("requests") or 0)
        )[:12]
    )
    family_table = (
        "<table><tr><th>family</th><th>reqs</th><th>exact</th>"
        f"<th>miss</th></tr>{family_rows}</table>"
        if family_rows
        else ""
    )
    return (
        "<p class='note'>request exit mix "
        "(ok / busy / error / drained / fault)</p>"
        f"{svg}<table><tr><th>series</th><th>value</th></tr>{rows}</table>"
        + family_table
    )


def _metrics_section(metrics):
    """The subsystem panels plus "Other series": each series once."""
    claimed = set()
    parts = [] if metrics else ["<p class='note'>no metrics dump provided</p>"]
    for title, prefixes in PANELS + (("Other series", ("",)),):
        families = {
            name: fam
            for name, fam in metric_families(metrics, prefixes).items()
            if name not in claimed
        }
        claimed.update(families)
        parts.append(f"<h3>{_esc(title)}</h3>{_panel(families)}")
    return "\n".join(parts)


# -- entry points -------------------------------------------------------------
def render_dashboard(trace=None, metrics=None, title="tia observatory",
                     telemetry=None):
    """Build the dashboard HTML string from artifact payloads.

    ``trace`` is a Chrome-trace document or a JSONL event list (see
    :func:`load_artifact`), ``metrics`` a flat metrics dump dict,
    ``telemetry`` a journal rollup
    (:func:`repro.obs.telemetry.journal_rollup`); any may be ``None``
    and its sections degrade to a note.
    """
    events = _normalize_events(trace)
    spans = sum(1 for ev in events if ev["ph"] == "X")
    doc = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p class='note'>{spans} spans, {len(events) - spans} instant "
        "events; static page, no scripts, no external resources.</p>",
        "<h2>Span waterfall</h2>", _waterfall_svg(events),
        "<h2>Gap timelines</h2>", _gap_section(events),
        "<h2>Bundling-cut effectiveness</h2>", _cut_section(events),
        "<h2>Paper metrics (Table 1/2 shape)</h2>", _paper_section(events),
        "<h2>Fleet telemetry</h2>", _telemetry_section(telemetry),
        "<h2>Metrics</h2>", _metrics_section(metrics),
        "</body></html>",
    ]
    return "\n".join(doc)


def dashboard_from_recorder(recorder=None, title="tia observatory"):
    """Render straight from a live recorder (no artifact files needed)."""
    from repro.obs import export

    return render_dashboard(
        trace=export.chrome_trace(recorder),
        metrics=export.metrics_dict(recorder),
        title=title,
    )


def write_dashboard(path, trace=None, metrics=None, title="tia observatory",
                    telemetry=None):
    """Render and write; raises if the output is not self-contained."""
    text = render_dashboard(
        trace=trace, metrics=metrics, title=title, telemetry=telemetry
    )
    problems = validate_self_contained(text)
    if problems:
        raise ValueError(
            "dashboard is not self-contained: " + "; ".join(problems)
        )
    with open(path, "w") as handle:
        handle.write(text)
    return len(text)


def validate_self_contained(text):
    """External references in dashboard HTML (empty list = self-contained)."""
    problems = []
    lowered = text.lower()
    for marker in _EXTERNAL_MARKERS:
        index = lowered.find(marker)
        if index >= 0:
            snippet = text[index:index + 60].splitlines()[0]
            problems.append(f"found {marker!r}: {snippet!r}")
    return problems
