"""The telemetry facade: one object wiring the whole testbed.

:class:`Telemetry` bundles the three always-available observability
pieces — a real :class:`~repro.sim.trace.Tracer`, a
:class:`~repro.obs.registry.MetricsRegistry` and the platform's
:class:`~repro.obs.ledger.CycleLedger` — and knows how to install them
across a platform and its devices, then render everything into the two
export artifacts:

* the **metrics document** (``--metrics-json``): a deterministic JSON
  snapshot of every registered instrument, the full per-domain cycle
  ledger, and the Fig. 7 exit breakdown;
* the **trace file** (``--trace-out``): Chrome trace-event JSON or
  JSONL via :mod:`repro.obs.export`.

Determinism contract: the metrics document contains only simulated
quantities, so two runs with identical arguments produce byte-identical
files.  Host wall-clock lives exclusively in the separate
:class:`~repro.obs.profiler.EngineProfiler` report.
"""

from __future__ import annotations

import json
from typing import Iterable, Optional

from repro.obs.export import write_trace
from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.trace import Tracer

#: Default ring capacity: large enough for a full measurement window at
#: the default scales without evictions.
DEFAULT_TRACE_CAPACITY = 262144

SCHEMA = "repro-obs/1"


class Telemetry:
    """The assembled observability layer for one testbed run."""

    def __init__(self, sim: Simulator,
                 trace_capacity: int = DEFAULT_TRACE_CAPACITY,
                 categories: Optional[Iterable[str]] = None,
                 namespace: str = ""):
        self.sim = sim
        self.registry = MetricsRegistry()
        #: Metric-name prefix for everything this facade wires (multi-
        #: host runs give each host ``host.<name>`` so per-host metrics
        #: stay distinguishable when documents are merged).  Empty
        #: string preserves the historical flat names.
        self.namespace = namespace
        self._scope = (self.registry.scope(namespace) if namespace
                       else self.registry)
        self.tracer = Tracer(sim, capacity=trace_capacity)
        if categories is None:
            self.tracer.enable_all()
        else:
            self.tracer.enable(*categories)
        self.platform = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach_platform(self, platform) -> None:
        """Install the tracer and registry on a Xen or NativeHost.

        Components read ``platform.trace`` / ``platform.metrics`` /
        ``platform.ledger`` dynamically, so everything constructed after
        (ports, guests, drivers) is wired automatically.
        """
        platform.trace = self.tracer
        platform.metrics = self._scope
        self.platform = platform
        if hasattr(platform, "blocked_interrupts"):
            self._scope.gauge("vmm.blocked_interrupts",
                              lambda: platform.blocked_interrupts)

    def attach_port(self, port) -> None:
        """Export one NIC port's device counters and trace its DMA path
        and mailboxes.

        Works for both SR-IOV ports (PF + VFs, DMA engine, loopback
        switch) and the VMDq 82598, which has only a subset of those
        surfaces.
        """
        index = getattr(port, "index", None)
        label = f"nic.port{index}" if index is not None else f"nic.{port.name}"
        scope = self._scope.scope(label)
        scope.gauge("wire_rx_pkts", lambda: port.wire_rx_packets)
        if hasattr(port, "wire_tx_packets"):
            scope.gauge("wire_tx_pkts", lambda: port.wire_tx_packets)
        if hasattr(port, "internal_loopback_packets"):
            scope.gauge("internal_loopback_pkts",
                        lambda: port.internal_loopback_packets)
        if hasattr(port, "default_queue_packets"):
            scope.gauge("default_queue_pkts",
                        lambda: port.default_queue_packets)
        datapath = getattr(port, "datapath", None)
        if datapath is not None:
            datapath.trace = self.tracer
            scope.gauge("dma_bytes", lambda: datapath.transferred_bytes.value)
            scope.gauge("dma_transfers", lambda: datapath.transfers.value)
        pf = getattr(port, "pf", None)
        if pf is not None:
            for function in [pf, *getattr(port, "vfs", [])]:
                self.attach_function(scope, function)

    def attach_function(self, port_scope, function) -> None:
        """Export one PF/VF's statistics block as gauges."""
        scope = port_scope.scope(function.name.split(".")[-1])
        scope.gauge("rx_pkts", lambda: function.rx_packets)
        scope.gauge("rx_bytes", lambda: function.rx_bytes)
        scope.gauge("rx_no_desc_drops", lambda: function.rx_no_desc_drops)
        scope.gauge("tx_pkts", lambda: function.tx_packets)
        scope.gauge("tx_bytes", lambda: function.tx_bytes)
        scope.gauge("interrupts_fired", lambda: function.throttle.fired)
        mailbox = getattr(function, "mailbox", None)
        if mailbox is not None:
            mailbox.trace = self.tracer

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def metrics_document(self, elapsed: float) -> dict:
        """The deterministic metrics snapshot (JSON-ready)."""
        ledger = getattr(self.platform, "ledger", None)
        exits = {}
        cycles = {}
        if ledger is not None:
            cycles = ledger.snapshot()
            for kind, (count, total) in ledger.exit_breakdown().items():
                exits[kind] = {
                    "count": count,
                    "cycles": total,
                    "cycles_per_second": total / elapsed if elapsed > 0 else 0.0,
                }
        return {
            "schema": SCHEMA,
            "window": {"elapsed": elapsed, "sim_time_end": self.sim.now},
            "metrics": self.registry.snapshot(),
            "cycles": cycles,
            "exits": exits,
            "trace": {
                "emitted": self.tracer.emitted,
                "evicted": self.tracer.evicted,
                "buffered": len(self.tracer),
            },
        }

    def metrics_json(self, elapsed: float) -> str:
        return json.dumps(self.metrics_document(elapsed), indent=2,
                          sort_keys=True)

    def write_metrics(self, path: str, elapsed: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.metrics_json(elapsed))

    def write_trace(self, path: str) -> str:
        """Write the captured trace; format chosen by extension."""
        return write_trace(path, self.tracer.events())
