"""``repro report``: a campaign journal rendered as standalone HTML.

The input is the ``campaign.jsonl`` journal the
:class:`~repro.obs.campaign.hub.TelemetryHub` wrote; the output is one
self-contained HTML file — inline CSS, a dozen lines of inline JS for
table sorting, SVG sparklines — that opens anywhere with no server, no
CDN, no dependencies.  Sections:

* campaign header: totals, wall time, outcome counts, respawn/corrupt
  counters from the closing ``campaign_end`` record;
* the per-cell table: status, attempts, wall runtime, throughput, CPU,
  loss, final simulated time — with an inline events/s timeline per
  cell built from its ``progress`` heartbeats;
* aggregate metric table: min/mean/p50/p99/max of every scalar metric
  across cells (:meth:`repro.sim.stats.Series.summary`);
* regression deltas: given ``--baseline`` (a prior journal), per-key
  throughput and runtime deltas, worst first.

Cell state has one source, :func:`fold`: :func:`replay` folds a whole
journal with it, and the live hub folds each record as it journals it.

Loading is strict (:func:`load_journal` validates the schema header
and every record) because CI asserts journals validate; *rendering*
is tolerant — a journal truncated by SIGKILL still reports whatever
settled before the kill.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.campaign.snapshot import (JOURNAL_SCHEMA, SnapshotError,
                                         validate_record)
from repro.sim.stats import Series


class JournalError(ValueError):
    """An unreadable or schema-foreign campaign journal."""


def load_journal(path, *, strict: bool = True) -> List[Dict[str, Any]]:
    """Parse and validate a journal; returns its records in order.

    ``strict=False`` skips invalid lines (the torn tail of a killed
    writer) instead of raising, but the schema header is always
    enforced — a foreign file should never render as an empty report.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise JournalError(f"cannot read journal {path}: {exc}")
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(data.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            # A line that is not UTF-8 is invalid like any other:
            # UnicodeDecodeError is a ValueError.
            record = validate_record(json.loads(line.decode("utf-8")),
                                     journal=True)
        except (ValueError, SnapshotError) as exc:
            if strict:
                raise JournalError(f"{path}:{number}: {exc}")
            continue
        records.append(record)
    if not records:
        raise JournalError(f"journal {path} contains no records")
    head = records[0]
    if head.get("kind") != "campaign_start" \
            or head.get("schema") != JOURNAL_SCHEMA:
        raise JournalError(
            f"journal {path} does not open with a {JOURNAL_SCHEMA!r} "
            f"campaign_start record (got kind={head.get('kind')!r}, "
            f"schema={head.get('schema')!r})")
    return records


@dataclass
class Cell:
    """One campaign cell: its journal records folded into state."""

    key: str
    status: str = "pending"
    cached: bool = False
    attempts: int = 0
    error: Optional[str] = None
    started_wall: Optional[float] = None
    ended_wall: Optional[float] = None
    sim_now: float = 0.0
    result: Dict[str, Any] = field(default_factory=dict)
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: (wall, events/s) heartbeat samples for the timeline.
    timeline: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def runtime(self) -> Optional[float]:
        if self.started_wall is None or self.ended_wall is None:
            return None
        return self.ended_wall - self.started_wall

    @property
    def done(self) -> bool:
        return self.status in ("ok", "retried", "timed_out", "failed")

    @property
    def events_per_sec(self) -> float:
        """The last heartbeat's rate."""
        return self.timeline[-1][1] if self.timeline else 0.0

    @property
    def throughput_bps(self) -> float:
        return float(self.result.get("throughput_bps") or 0.0)

    def scalar_metrics(self) -> Iterator[Tuple[str, float]]:
        """``(name, value)`` of every numeric metric: its ``value``, or
        its ``mean`` when it has none."""
        for name, doc in self.metrics.items():
            if not isinstance(doc, dict):
                continue
            value = doc.get("value", doc.get("mean"))
            if isinstance(value, (int, float)) \
                    and not isinstance(value, bool):
                yield name, float(value)


def fold(cells: Dict[str, Cell], record: Dict[str, Any]) -> None:
    """Fold one journal record into its cell, created on first sight
    (so ``cells`` keeps first-seen order)."""
    key = record.get("key")
    if not isinstance(key, str):
        return
    cell = cells.get(key)
    if cell is None:
        cell = cells[key] = Cell(key)
    kind = record["kind"]
    wall = float(record["wall"])
    if kind == "cache_hit":
        cell.status, cell.cached = "ok", True
        cell.started_wall = cell.started_wall or wall
        cell.ended_wall = wall
    elif kind == "cache_quarantined":
        cell.status = "quarantined"
    elif kind == "task_running":
        cell.status = "running"
        cell.attempts = int(record.get("attempt") or 0)
        if cell.started_wall is None:
            cell.started_wall = wall
    elif kind == "progress":
        cell.timeline.append(
            (wall, float(record.get("events_per_sec") or 0.0)))
        cell.sim_now = float(record.get("sim_now") or cell.sim_now)
    elif kind == "task_end":
        cell.result = dict(record.get("result") or {})
        cell.metrics = dict(record.get("metrics") or {})
        cell.sim_now = float(record.get("sim_now") or cell.sim_now)
    elif kind == "task_terminal":
        cell.status = record.get("status") or cell.status
        cell.attempts = int(record.get("attempts") or cell.attempts)
        cell.error = record.get("error")
        cell.ended_wall = wall


def replay(records: List[Dict[str, Any]]) -> Dict[str, Cell]:
    """Journal records -> per-key cells, in first-seen order."""
    cells: Dict[str, Cell] = {}
    for record in records:
        fold(cells, record)
    return cells


def aggregate_metrics(cells: Dict[str, Cell]
                      ) -> Dict[str, Dict[str, float]]:
    """Cross-cell scalar-metric summaries (min/mean/p50/p99/max)."""
    folded: Dict[str, Series] = {}
    for cell in cells.values():
        for name, value in cell.scalar_metrics():
            series = folded.setdefault(name, Series(name))
            series.record(float(len(series)), value)
    return {name: series.summary(percentiles=(50, 99))
            for name, series in sorted(folded.items())}


def regression_rows(cells: Dict[str, Cell],
                    baseline: Dict[str, Cell]
                    ) -> List[List[object]]:
    """Per-key deltas vs a prior journal, worst throughput drop first."""
    rows = []
    for key, cell in cells.items():
        prior = baseline.get(key)
        if prior is None or not cell.result or not prior.result:
            continue
        base_bps = prior.throughput_bps
        delta_bps = (cell.throughput_bps - base_bps) / base_bps * 100 \
            if base_bps else 0.0
        base_rt, now_rt = prior.runtime, cell.runtime
        delta_rt = ((now_rt - base_rt) / base_rt * 100
                    if base_rt and now_rt is not None else None)
        rows.append([key, base_bps / 1e9, cell.throughput_bps / 1e9,
                     delta_bps, delta_rt])
    return sorted(rows, key=lambda row: row[3])


# ----------------------------------------------------------------------
# HTML rendering
# ----------------------------------------------------------------------
_CSS = """
body{font:14px/1.45 -apple-system,Segoe UI,sans-serif;margin:2em auto;
     max-width:72em;padding:0 1em;color:#1a1a2e;background:#fafafa}
h1{font-size:1.4em}h2{font-size:1.1em;margin-top:2em;
   border-bottom:1px solid #ddd;padding-bottom:.2em}
table{border-collapse:collapse;width:100%;font-size:13px;background:#fff}
th,td{border:1px solid #e3e3e8;padding:.25em .6em;text-align:right;
      white-space:nowrap}
th{background:#eef;cursor:pointer;position:sticky;top:0}
td:first-child,th:first-child{text-align:left;font-family:ui-monospace,
      monospace}
tr.bad td{background:#fde8e8}tr.hit td:first-child{color:#567}
.badge{display:inline-block;padding:0 .5em;border-radius:.8em;
      font-size:12px;color:#fff}
.ok{background:#2e9e5b}.retried{background:#c89a2b}
.timed_out,.failed{background:#c0392b}.quarantined{background:#8e44ad}
.running,.pending{background:#7f8c8d}
svg{vertical-align:middle}details{margin:.6em 0}
.meta{color:#667;font-size:13px}
"""

_JS = """
document.querySelectorAll('th').forEach(function(th){
  th.addEventListener('click', function(){
    var table = th.closest('table');
    var idx = Array.from(th.parentNode.children).indexOf(th);
    var rows = Array.from(table.querySelectorAll('tbody tr'));
    var asc = th.dataset.asc !== '1';
    th.dataset.asc = asc ? '1' : '0';
    rows.sort(function(a, b){
      var x = a.children[idx].dataset.v ?? a.children[idx].textContent;
      var y = b.children[idx].dataset.v ?? b.children[idx].textContent;
      var nx = parseFloat(x), ny = parseFloat(y);
      if (!isNaN(nx) && !isNaN(ny)) return asc ? nx - ny : ny - nx;
      return asc ? x.localeCompare(y) : y.localeCompare(x);
    });
    rows.forEach(function(r){ r.parentNode.appendChild(r); });
  });
});
"""


def _spark_svg(samples: List[Tuple[float, float]], width: int = 120,
               height: int = 18) -> str:
    """A tiny inline SVG polyline of (wall, rate) heartbeat samples."""
    if len(samples) < 2:
        return ""
    t0, t1 = samples[0][0], samples[-1][0]
    top = max(rate for _, rate in samples) or 1.0
    span = (t1 - t0) or 1.0
    points = " ".join(
        f"{(wall - t0) / span * width:.1f},"
        f"{height - rate / top * (height - 2):.1f}"
        for wall, rate in samples)
    return (f'<svg width="{width}" height="{height}">'
            f'<polyline points="{points}" fill="none" '
            f'stroke="#4a6fa5" stroke-width="1.2"/></svg>')


def _fmt(value, digits=2) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return f"{value:,.{digits}f}"
    return str(value)


def _cell_rows(cells: Dict[str, Cell]) -> List[str]:
    import html
    rows = []
    for key, cell in sorted(cells.items()):
        result = cell.result
        bad = cell.status in ("timed_out", "failed")
        classes = ("bad" if bad else "hit" if cell.cached else "")
        gbps = (cell.throughput_bps / 1e9) if result else None
        title = html.escape(cell.error or "")
        rows.append(
            f'<tr class="{classes}" title="{title}">'
            f'<td>{html.escape(key[:16])}</td>'
            f'<td data-v="{cell.status}"><span class="badge '
            f'{cell.status}">{cell.status}</span>'
            f'{" (cached)" if cell.cached else ""}</td>'
            f'<td>{cell.attempts}</td>'
            f'<td data-v="{cell.runtime or -1}">'
            f'{_fmt(cell.runtime)}</td>'
            f'<td data-v="{gbps if gbps is not None else -1}">'
            f'{_fmt(gbps, 3)}</td>'
            f'<td>{_fmt(result.get("cpu_percent") if result else None, 1)}'
            f'</td>'
            f'<td>{_fmt(result.get("loss_rate", 0) * 100 if result else None, 2)}'
            f'</td>'
            f'<td>{_fmt(cell.sim_now, 2)}</td>'
            f'<td data-v="{len(cell.timeline)}">'
            f'{_spark_svg(cell.timeline)}</td></tr>')
    return rows


def render_report(records: List[Dict[str, Any]],
                  baseline_records: Optional[List[Dict[str, Any]]] = None,
                  title: str = "campaign report") -> str:
    """The full standalone HTML document as a string."""
    # Imported here: html.entities costs ~0.5 MB wherever repro.obs is
    # imported, and the live hub imports this module only to fold.
    import html
    cells = replay(records)
    head = records[0]
    tail = records[-1] if records[-1]["kind"] == "campaign_end" else None
    walls = [record["wall"] for record in records]
    duration = max(walls) - min(walls) if walls else 0.0
    counts: Dict[str, int] = {}
    for cell in cells.values():
        counts[cell.status] = counts.get(cell.status, 0) + 1
    stats = (tail or {}).get("stats") or {}

    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        f"<p class='meta'>{len(cells)} cells / {head.get('total', '?')} "
        f"planned &middot; {duration:.1f}s of journal wall time &middot; "
        f"{head.get('workers', 1)} workers"
        f"{' &middot; resumed' if head.get('resumed') else ''}"
        f"{' &middot; <b>campaign did not close</b>' if tail is None else ''}"
        "</p>",
        "<p>" + " ".join(
            f'<span class="badge {status}">{status} {count}</span>'
            for status, count in sorted(counts.items())) + "</p>",
    ]
    if stats:
        parts.append("<p class='meta'>closing stats: " + ", ".join(
            f"{key}={value}" for key, value in sorted(stats.items()))
            + "</p>")

    parts.append("<h2>cells</h2><table><thead><tr>"
                 "<th>key</th><th>status</th><th>att</th><th>wall s</th>"
                 "<th>Gbps</th><th>CPU%</th><th>loss%</th><th>sim s</th>"
                 "<th>events/s timeline</th></tr></thead><tbody>")
    parts += _cell_rows(cells)
    parts.append("</tbody></table>")

    if baseline_records is not None:
        parts.append("<h2>deltas vs baseline</h2>")
        rows = regression_rows(cells, replay(baseline_records))
        if rows:
            parts.append(
                "<table><thead><tr><th>key</th><th>base Gbps</th>"
                "<th>now Gbps</th><th>&Delta; bps %</th>"
                "<th>&Delta; runtime %</th></tr></thead><tbody>")
            parts += [
                f"<tr{' class=bad' if delta_bps < -1 else ''}>"
                f"<td>{html.escape(key[:16])}</td><td>{_fmt(base, 3)}</td>"
                f"<td>{_fmt(now, 3)}</td><td>{_fmt(delta_bps)}</td>"
                f"<td>{_fmt(delta_rt)}</td></tr>"
                for key, base, now, delta_bps, delta_rt in rows]
            parts.append("</tbody></table>")
        else:
            parts.append("<p class='meta'>no overlapping keys with "
                         "results in both journals.</p>")

    aggregates = aggregate_metrics(cells)
    if aggregates:
        parts.append(f"<h2>metrics across cells</h2><details>"
                     f"<summary>{len(aggregates)} metrics "
                     "(min / mean / p50 / p99 / max over cells)"
                     "</summary><table><thead><tr><th>metric</th>"
                     "<th>cells</th><th>min</th><th>mean</th><th>p50</th>"
                     "<th>p99</th><th>max</th></tr></thead><tbody>")
        for name, summary in aggregates.items():
            parts.append(
                f"<tr><td>{html.escape(name)}</td>"
                f"<td>{summary['count']}</td>"
                f"<td>{_fmt(summary.get('min'))}</td>"
                f"<td>{_fmt(summary.get('mean'))}</td>"
                f"<td>{_fmt(summary.get('p50'))}</td>"
                f"<td>{_fmt(summary.get('p99'))}</td>"
                f"<td>{_fmt(summary.get('max'))}</td></tr>")
        parts.append("</tbody></table></details>")

    parts.append(f"<script>{_JS}</script></body></html>")
    return "\n".join(parts)


def write_report(journal_path, out_path=None, baseline_path=None) -> Path:
    """Load, render, write; returns the output path."""
    journal_path = Path(journal_path)
    records = load_journal(journal_path, strict=False)
    baseline = (load_journal(baseline_path, strict=False)
                if baseline_path else None)
    out = Path(out_path) if out_path \
        else journal_path.with_suffix(".html")
    out.write_text(render_report(records, baseline,
                                 title=f"campaign report — "
                                       f"{journal_path.name}"),
                   encoding="utf-8")
    return out
