"""Unified observability for the simulated testbed.

The paper's key evidence is instrumentation output — the xentrace-based
VM-exit breakdown of Fig. 7 and the per-second migration timelines of
Figs. 20-21.  This package is the reproduction's equivalent layer:

* :mod:`repro.obs.registry` — the hierarchical
  :class:`MetricsRegistry`: components register Counter / Histogram
  instruments and read-at-snapshot gauges under dotted names,
  snapshot-able to one deterministic JSON document.
* :mod:`repro.obs.ledger` — the :class:`CycleLedger`: every simulated
  cycle the cost model charges, attributed to a ``(domain, category)``
  pair.  Its ``exit.*`` cells are the one book of VM exits (Fig. 7).
* :mod:`repro.obs.export` — Tracer events and spans rendered as Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto) or JSONL.
* :mod:`repro.obs.profiler` — the opt-in host-side
  :class:`EngineProfiler`: wall-clock and event counts per simulator
  callback.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` facade a testbed
  installs, exposed via the CLI's ``--metrics-json`` / ``--trace-out``
  / ``--profile`` flags.
* :mod:`repro.obs.campaign` — campaign-scale observability: streaming
  worker telemetry into a :class:`TelemetryHub`, the live
  ``--dashboard`` view, the ``campaign.jsonl`` journal and the
  ``repro report`` static-HTML renderer.

Everything defaults off: platforms carry null registries/tracers whose
methods are no-ops.  Hot paths count unconditionally, and trace only
when their tracer is ``live``, so the null tracer costs them no call.
"""

from repro.obs.campaign import (
    JOURNAL_SCHEMA,
    SNAPSHOT_SCHEMA,
    SnapshotEmitter,
    TelemetryHub,
)
from repro.obs.export import (
    chrome_trace_events,
    trace_to_chrome_json,
    trace_to_jsonl,
    write_trace,
)
from repro.obs.ledger import EXIT_PREFIX, CycleLedger
from repro.obs.profiler import EngineProfiler
from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsError,
    MetricsRegistry,
    MetricsScope,
    NullRegistry,
)
from repro.obs.telemetry import Telemetry

__all__ = [
    "CycleLedger",
    "EXIT_PREFIX",
    "EngineProfiler",
    "JOURNAL_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "SnapshotEmitter",
    "TelemetryHub",
    "MetricsError",
    "MetricsRegistry",
    "MetricsScope",
    "NULL_REGISTRY",
    "NullRegistry",
    "Telemetry",
    "chrome_trace_events",
    "trace_to_chrome_json",
    "trace_to_jsonl",
    "write_trace",
]
