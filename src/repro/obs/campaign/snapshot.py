"""Worker-side telemetry streaming: spool records and their schema.

A sweep worker owns a live simulator the parent process can never see.
The :class:`SnapshotEmitter` is the bridge: it appends small JSON
records to a per-task *spool file* that the parent's
:class:`~repro.obs.campaign.hub.TelemetryHub` tails.  Three record
kinds cross the boundary:

``task_start``
    Written synchronously before the simulation is built: task key,
    worker pid, and the scenario's dict form.
``progress``
    Periodic heartbeats sampled by a daemon thread.  The thread reads
    exactly two scalar simulator attributes (``sim.now`` and
    ``sim.events_executed``) — plain attribute loads that are safe to
    race with the simulation and, crucially, never *touch* it: no
    event is scheduled, no sequence number consumed, so results stay
    byte-identical with streaming on.
``task_end``
    Written synchronously after the run: the result summary, the full
    MetricsRegistry snapshot, the cycle ledger's per-domain breakdown
    and the exit counts.

Spool files are append-only JSONL named ``<key>.<pid>.jsonl`` — the
pid suffix keeps a hung worker's stale file from interleaving with its
retry's — and a torn final line (worker killed mid-write) is simply an
incomplete line the hub's tail ignores.  Every emitter write is
wrapped: telemetry failure (disk full, unlinked spool dir) must never
fail the task.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

#: Schema tag stamped into worker records and validated by the hub.
SNAPSHOT_SCHEMA = "repro-campaign-snapshot/1"

#: Schema tag of the merged journal the hub writes.
JOURNAL_SCHEMA = "repro-campaign-journal/1"

#: Record kinds a worker emits.
WORKER_KINDS = ("task_start", "progress", "task_end")

#: Record kinds the hub itself originates (supervisor/cache state).
HUB_KINDS = ("campaign_start", "cache_hit", "cache_quarantined",
             "task_running", "task_terminal", "campaign_end")

#: Default host-seconds between progress heartbeats.
DEFAULT_HEARTBEAT = 0.25


class SnapshotError(ValueError):
    """A malformed snapshot/journal record."""


def validate_record(record: Any, *, journal: bool = False) -> Dict[str, Any]:
    """Validate one spool (or journal) record; returns it typed.

    Worker records must carry the snapshot schema, a known kind and a
    task key.  With ``journal=True`` the hub-originated kinds are also
    admitted and the host-wall timestamp + journal sequence number are
    required — that is the contract ``repro report`` loads against.
    """
    if not isinstance(record, dict):
        raise SnapshotError(f"record is {type(record).__name__}, not dict")
    kind = record.get("kind")
    allowed = WORKER_KINDS + HUB_KINDS if journal else WORKER_KINDS
    if kind not in allowed:
        raise SnapshotError(f"unknown record kind {kind!r}")
    if kind in WORKER_KINDS and record.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"record schema {record.get('schema')!r} is not "
            f"{SNAPSHOT_SCHEMA!r}")
    if kind not in ("campaign_start", "campaign_end") \
            and not isinstance(record.get("key"), str):
        raise SnapshotError(f"{kind} record carries no task key")
    if journal:
        if not isinstance(record.get("wall"), (int, float)):
            raise SnapshotError(f"journal {kind} record has no wall stamp")
        if not isinstance(record.get("seq"), int):
            raise SnapshotError(f"journal {kind} record has no seq")
    return record


def result_summary(result_dict: Mapping[str, Any]) -> Dict[str, Any]:
    """The compact slice of a result dict the journal carries.

    The full result lives in the cache; the journal only needs the
    columns the dashboard and report tabulate.
    """
    cpu = result_dict.get("cpu") or {}
    return {
        "throughput_bps": result_dict.get("throughput_bps", 0.0),
        "cpu_percent": float(sum(cpu.values())),
        "loss_rate": result_dict.get("loss_rate", 0.0),
        "interrupt_hz": result_dict.get("interrupt_hz", 0.0),
        "vm_count": result_dict.get("vm_count", 0),
        "duration": result_dict.get("duration", 0.0),
    }


class SnapshotEmitter:
    """Streams one task's telemetry into its spool file.

    Lifecycle inside :func:`repro.sweep.jobs.execute_payload`::

        emitter = SnapshotEmitter(spool_dir, key)
        emitter.task_start(scenario_dict)
        result = run(scenario, telemetry=True,
                     observer=emitter.observe_testbed)
        emitter.task_end(result)          # also stops the heartbeat

    Every public method is a no-op after an unrecoverable write error:
    streaming is strictly best-effort.
    """

    def __init__(self, spool_dir: str, key: str,
                 heartbeat: float = DEFAULT_HEARTBEAT,
                 clock=time.monotonic):
        self.key = key
        self.heartbeat = heartbeat
        self._clock = clock
        self._started = clock()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._sim = None
        self._handle = None
        self._broken = False
        try:
            root = Path(spool_dir)
            root.mkdir(parents=True, exist_ok=True)
            path = root / f"{key}.{os.getpid()}.jsonl"
            self._handle = open(path, "a", encoding="utf-8")
        except OSError:
            self._broken = True

    # ------------------------------------------------------------------
    # record writers
    # ------------------------------------------------------------------
    def _write(self, kind: str, **fields: Any) -> None:
        if self._broken or self._handle is None:
            return
        record = {"schema": SNAPSHOT_SCHEMA, "kind": kind, "key": self.key,
                  "pid": os.getpid(),
                  "host_elapsed": self._clock() - self._started}
        record.update(fields)
        line = json.dumps(record, sort_keys=True)
        try:
            with self._lock:
                self._handle.write(line + "\n")
                self._handle.flush()
        except (OSError, ValueError):
            # ValueError: write on a handle closed by a racing task_end.
            self._broken = True

    def task_start(self, scenario: Mapping[str, Any]) -> None:
        self._write("task_start", scenario=dict(scenario))

    def observe_testbed(self, bed) -> None:
        """Testbed-construction hook: grab the simulator and start the
        heartbeat thread (idempotent; migration runs build two beds —
        the latest simulator wins)."""
        self._sim = bed.sim
        if self._thread is None and not self._broken:
            self._thread = threading.Thread(target=self._pulse,
                                            name=f"spool-{self.key[:8]}",
                                            daemon=True)
            self._thread.start()

    def _pulse(self) -> None:
        last_events = 0
        last_at = self._clock()
        while not self._stop.wait(self.heartbeat):
            sim = self._sim
            if sim is None:
                continue
            now_host = self._clock()
            events = sim.events_executed
            interval = max(1e-9, now_host - last_at)
            self._write("progress", sim_now=sim.now,
                        events_executed=events,
                        events_per_sec=(events - last_events) / interval)
            last_events, last_at = events, now_host

    def task_end(self, result) -> None:
        """The final full snapshot; stops the heartbeat first so no
        progress record can land after the terminal record."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        telemetry = getattr(result, "telemetry", None)
        metrics: Dict[str, Any] = {}
        cycles_by_domain: Dict[str, float] = {}
        if telemetry is not None:
            try:
                metrics = telemetry.registry.snapshot()
            except RuntimeError:  # pragma: no cover - defensive
                metrics = {}
            ledger = getattr(telemetry.platform, "ledger", None)
            if ledger is not None:
                cycles_by_domain = ledger.by_domain()
        sim = self._sim
        self._write(
            "task_end",
            result=result_summary(result.to_dict()),
            metrics=metrics,
            cycles_by_domain=cycles_by_domain,
            exit_counts=dict(getattr(result, "exit_counts", {}) or {}),
            sim_now=sim.now if sim is not None else None,
            events_executed=(sim.events_executed
                             if sim is not None else None),
        )
        self.close()

    def close(self) -> None:
        self._stop.set()
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:  # pragma: no cover - best-effort
                pass
