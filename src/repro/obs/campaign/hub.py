"""The parent-side telemetry hub: ingest, journal, aggregate.

One :class:`TelemetryHub` lives in the campaign parent for the length
of a ``repro sweep``/``repro figures`` run.  It is fed from three
directions:

* the **runner** reports campaign shape (``campaign_start``), cache
  hits and quarantined cache entries;
* the **supervisor** reports task submissions and terminal outcomes
  (:meth:`task_running` / :meth:`task_terminal`) and calls
  :meth:`poll` from its watchdog loop;
* the **workers** stream ``task_start``/``progress``/``task_end``
  records through spool files (:mod:`repro.obs.campaign.snapshot`)
  that :meth:`poll` tails incrementally, byte-offset per file, so a
  torn final line is retried on the next poll and nothing is read
  twice.

Every record — hub-originated or ingested — is stamped with host
wall-clock, folded into :attr:`TelemetryHub.cells` by
:func:`repro.obs.campaign.report.fold`, the function ``repro report``
replays the journal with, and then given a monotonic journal sequence
number and appended to the ``campaign.jsonl`` journal.  The live view
is therefore what the report will show.  The journal is append-only
and flushed per record: a SIGKILL loses at most the record being
written, and a ``--resume`` of the same campaign reopens the same
journal in append mode, skipping re-emission for cells whose
successful terminal records are already present (no duplicates, no
losses); those records are still folded into the live cells.

The hub is observation-only by construction: it never blocks a worker
(spool writes are the workers' own, journal writes are the parent's),
never feeds anything back into the engine, and swallows its own I/O
errors (counted in :attr:`journal_errors`) rather than failing a
campaign over a full disk.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.campaign.report import Cell, aggregate_metrics, fold
from repro.obs.campaign.snapshot import (JOURNAL_SCHEMA, SnapshotError,
                                         validate_record)

#: Cell states the task grid distinguishes.
CELL_STATES = ("pending", "running", "ok", "retried", "timed_out",
               "failed", "quarantined")

#: Metric-name prefixes surfaced as live dashboard counters.
FAULT_PREFIX = "faults."


class TelemetryHub:
    """Fleet-level telemetry: journal writer + live aggregates."""

    def __init__(self, journal_path: Optional[os.PathLike] = None,
                 spool_dir: Optional[os.PathLike] = None,
                 dashboard=None, clock=time.time):
        self.journal_path = Path(journal_path) if journal_path else None
        if spool_dir is None and self.journal_path is not None:
            spool_dir = self.journal_path.with_name(
                self.journal_path.name + ".spool")
        self.spool_dir = Path(spool_dir) if spool_dir else None
        self.dashboard = dashboard
        self._clock = clock
        self._journal = None
        self._seq = 0
        self.journal_errors = 0
        #: Keys whose *successful* terminal record is already journaled
        #: (from a prior run being resumed): suppress re-emission.
        self._settled: set = set()
        self._offsets: Dict[Path, int] = {}
        #: Per-key cells, folded by ``report.fold`` from every record
        #: the hub stamps, settled cells' records included.
        self.cells: Dict[str, Cell] = {}
        self.total = 0
        self.workers = 1
        #: (wall, fleet events/s) samples for the throughput sparkline.
        self.throughput_history: List[Tuple[float, float]] = []
        self._load_existing()
        self._open_journal()

    # ------------------------------------------------------------------
    # journal plumbing
    # ------------------------------------------------------------------
    def _load_existing(self) -> None:
        """Resume support: learn which cells a prior run already
        settled, so their records are not duplicated, and the last
        ``seq`` it numbered, so numbering continues past it.  A torn
        final line (a killed writer) is cut off, so the first appended
        record starts a line of its own."""
        if self.journal_path is None or not self.journal_path.exists():
            return
        try:
            data = self.journal_path.read_bytes()
        except OSError:
            return
        for line in data.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn tail of a killed writer
            if not isinstance(record, dict):
                continue
            if isinstance(record.get("seq"), int):
                self._seq = max(self._seq, record["seq"])
            kind = record.get("kind")
            key = record.get("key")
            if not isinstance(key, str):
                continue
            if kind == "cache_hit" or (
                    kind == "task_terminal"
                    and record.get("status") in ("ok", "retried")):
                self._settled.add(key)
        end = data.rfind(b"\n") + 1
        if end < len(data):
            try:
                os.truncate(self.journal_path, end)
            except OSError:
                self.journal_errors += 1

    def _open_journal(self) -> None:
        if self.journal_path is None:
            return
        try:
            self.journal_path.parent.mkdir(parents=True, exist_ok=True)
            self._journal = open(self.journal_path, "a", encoding="utf-8")
        except OSError:
            self.journal_errors += 1
            self._journal = None

    def _append(self, record: Dict[str, Any], journal: bool = True) -> None:
        """Stamp one record with host wall-clock, fold it into its cell
        and, unless a prior run settled that cell (``journal=False``),
        number it and append it to the journal."""
        record["wall"] = self._clock()
        fold(self.cells, record)
        if not journal:
            return
        self._seq += 1
        record["seq"] = self._seq
        if self._journal is None:
            return
        try:
            self._journal.write(json.dumps(record, sort_keys=True) + "\n")
            self._journal.flush()
        except (OSError, ValueError):
            self.journal_errors += 1

    # ------------------------------------------------------------------
    # runner-facing events
    # ------------------------------------------------------------------
    def campaign_start(self, total: int, workers: int = 1) -> None:
        self.total = total
        self.workers = max(1, workers)
        self._append({"schema": JOURNAL_SCHEMA, "kind": "campaign_start",
                      "total": total, "workers": self.workers,
                      "resumed": bool(self._settled)})
        self._render()

    def cache_hit(self, key: str) -> None:
        journal = key not in self._settled
        self._settled.add(key)
        self._append({"kind": "cache_hit", "key": key}, journal=journal)
        self._render()

    def cache_quarantined(self, key: str) -> None:
        self._append({"kind": "cache_quarantined", "key": key})
        self._render()

    # ------------------------------------------------------------------
    # supervisor-facing events
    # ------------------------------------------------------------------
    def task_running(self, key: str, attempt: int) -> None:
        self._append({"kind": "task_running", "key": key,
                      "attempt": attempt})
        self._render()

    def task_terminal(self, outcome) -> None:
        """A :class:`~repro.sweep.supervise.TaskOutcome` reached its
        terminal state."""
        self.poll()  # drain the worker's final spool records first
        journal = outcome.key not in self._settled
        if outcome.status in ("ok", "retried"):
            self._settled.add(outcome.key)
        record = {"kind": "task_terminal", "key": outcome.key,
                  "status": outcome.status, "attempts": outcome.attempts}
        if outcome.error is not None:
            record["error"] = outcome.error
        self._append(record, journal=journal)
        self._render()

    def finalize(self, stats=None) -> None:
        """Campaign end: drain spools, journal the closing record,
        fsync, and tear the dashboard down."""
        self.poll()
        record: Dict[str, Any] = {"kind": "campaign_end"}
        if stats is not None:
            record["stats"] = {
                field: getattr(stats, field)
                for field in ("total", "hits", "misses", "executed", "ok",
                              "retried", "timed_out", "failed", "respawns",
                              "corrupt", "wall_s", "peak_workers")
                if hasattr(stats, field)}
        self._append(record)
        if self._journal is not None:
            try:
                self._journal.flush()
                os.fsync(self._journal.fileno())
                self._journal.close()
            except (OSError, ValueError):
                self.journal_errors += 1
            self._journal = None
        self._sweep_spool()
        if self.dashboard is not None:
            self.dashboard.finalize(self)

    def _sweep_spool(self) -> None:
        """Remove fully-consumed spool files (best-effort hygiene; a
        crash leaves them for the resumed run's hub to re-tail)."""
        if self.spool_dir is None or not self.spool_dir.exists():
            return
        try:
            for path in self.spool_dir.glob("*.jsonl"):
                path.unlink()
            self.spool_dir.rmdir()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # spool ingestion
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Tail every spool file; ingest, journal and aggregate any
        complete new lines.  Returns the number of records ingested."""
        ingested = 0
        if self.spool_dir is not None and self.spool_dir.exists():
            try:
                paths = sorted(self.spool_dir.glob("*.jsonl"))
            except OSError:
                paths = []
            for path in paths:
                ingested += self._tail(path)
        if ingested:
            self._sample_throughput()
        self._render()
        return ingested

    def _tail(self, path: Path) -> int:
        offset = self._offsets.get(path, 0)
        try:
            with open(path, "rb") as handle:
                handle.seek(offset)
                chunk = handle.read()
        except OSError:
            return 0
        if not chunk:
            return 0
        # Only complete lines are consumed; a torn tail stays unread
        # until its newline arrives (or never does — a killed worker).
        end = chunk.rfind(b"\n")
        if end < 0:
            return 0
        self._offsets[path] = offset + end + 1
        count = 0
        for line in chunk[:end + 1].splitlines():
            try:
                record = validate_record(json.loads(line.decode("utf-8")))
            except (ValueError, SnapshotError):
                continue
            self._append(record, journal=record["key"] not in self._settled)
            count += 1
        return count

    # ------------------------------------------------------------------
    # aggregates (dashboard / report surface)
    # ------------------------------------------------------------------
    def _sample_throughput(self) -> None:
        rate = sum(cell.events_per_sec for cell in self.cells.values()
                   if cell.status == "running")
        self.throughput_history.append((self._clock(), rate))
        if len(self.throughput_history) > 512:
            del self.throughput_history[:256]

    def status_counts(self) -> Dict[str, int]:
        counts = {state: 0 for state in CELL_STATES}
        for cell in self.cells.values():
            counts[cell.status] = counts.get(cell.status, 0) + 1
        counts["pending"] += max(0, self.total - len(self.cells))
        return counts

    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells.values() if cell.cached)

    def completed_runtimes(self) -> List[Tuple[str, float]]:
        out = [(cell.key, cell.runtime) for cell in self.cells.values()
               if cell.done and not cell.cached
               and cell.runtime is not None]
        return sorted(out, key=lambda pair: -pair[1])

    def eta_seconds(self) -> Optional[float]:
        """Remaining wall estimate from completed-cell runtimes."""
        runtimes = [runtime for _, runtime in self.completed_runtimes()]
        if not runtimes:
            return None
        done = sum(1 for cell in self.cells.values() if cell.done)
        remaining = max(0, self.total - done)
        mean = sum(runtimes) / len(runtimes)
        return remaining * mean / max(1, self.workers)

    def fleet_events_per_sec(self) -> float:
        return self.throughput_history[-1][1] \
            if self.throughput_history else 0.0

    def aggregate_metrics(self) -> Dict[str, Dict[str, float]]:
        """Per-metric min/mean/p50/p99/max across cells, as the report
        tabulates them."""
        return aggregate_metrics(self.cells)

    @property
    def fault_counts(self) -> Dict[str, float]:
        """Every ``faults.*`` metric summed across cells."""
        counts: Dict[str, float] = {}
        for cell in self.cells.values():
            for name, value in cell.scalar_metrics():
                if name.startswith(FAULT_PREFIX):
                    counts[name] = counts.get(name, 0.0) + value
        return counts

    # ------------------------------------------------------------------
    # display
    # ------------------------------------------------------------------
    def _render(self) -> None:
        if self.dashboard is not None:
            self.dashboard.maybe_render(self)
