"""Campaign-scale observability: streaming telemetry, dashboard, report.

PR 1 gave a *single run* deep observability; the sweep/supervise stack
made campaigns of hundreds of cells the unit of work.  This package is
the layer that watches a whole campaign at once:

* :mod:`repro.obs.campaign.snapshot` — the worker side.  Each sweep
  worker appends compact, schema-versioned JSONL records to a spool
  file: a ``task_start`` record, periodic ``progress`` heartbeats
  (simulated-time progress and events/s, sampled by a daemon thread
  that never touches the simulation), and a ``task_end`` record
  carrying the run's MetricsRegistry snapshot, cycle-ledger breakdown
  and result summary.
* :mod:`repro.obs.campaign.hub` — the parent side.  The
  :class:`TelemetryHub` ingests spool records as they appear, stamps
  them with host wall-clock, appends every record to a crash-safe
  ``campaign.jsonl`` journal, and folds each into its per-cell state
  with the report's own :func:`~repro.obs.campaign.report.fold`.  From
  those cells it derives the fleet view: status counts, throughput
  history, ETA, slowest cells and fault counters.
* :mod:`repro.obs.campaign.dashboard` — an in-terminal (pure ANSI,
  zero dependencies) live view fed from the hub; degrades to periodic
  single-line summaries when stderr is not a TTY.
* :mod:`repro.obs.campaign.report` — ``repro report``: replays a
  journal through :func:`~repro.obs.campaign.report.fold` (optionally
  diffed against a prior one) and renders a self-contained static HTML
  file with inline CSS/JS only.

Hard contract, inherited from the telemetry/ledger split: the hub is
**observation-only**.  Cached results, cache keys, checkpoints and
figure artifacts are byte-identical with the hub enabled; host
wall-clock exists only in the journal, never in results.
"""

from repro.obs.campaign.hub import TelemetryHub
from repro.obs.campaign.snapshot import (
    JOURNAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    SnapshotEmitter,
    validate_record,
)

__all__ = [
    "JOURNAL_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "SnapshotEmitter",
    "TelemetryHub",
]
