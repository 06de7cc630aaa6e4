"""Netback: the dom0 half of the Xen PV split driver.

Every packet a PV guest receives is *copied* by dom0 — "existing
solutions, such as the Xen split device driver ... suffer from VMM
intervention overhead, due to packet copy" (§1).  The copy work runs on
a pool of backend threads:

* the stock driver has **one** thread, which "can easily saturate at
  100% CPU utilization ... only 3.6 Gbps in our experiment" (§6.5);
* the paper's enhanced driver spreads the copy across several threads —
  but per-packet cost still grows with VM count (60 rings of cache/TLB
  working set), which is why Figs. 17-18 decay.

Each backend thread is a saturating :class:`~repro.hw.cpu.Executor`:
when offered work exceeds the pool's service rate, bursts are rejected
and the goodput caps — the mechanism behind every PV throughput ceiling
in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.hw.cpu import Executor
from repro.net.packet import Packet
from repro.vmm.domain import Domain


class Netback:
    """The dom0 backend service pool."""

    def __init__(self, platform, dom0: Domain, threads: Optional[int] = None,
                 queue_limit: int = 256):
        self.platform = platform
        self.sim = platform.sim
        self.costs = platform.costs
        self.dom0 = dom0
        thread_count = threads if threads is not None else self.costs.netback_threads
        if thread_count <= 0:
            raise ValueError("netback needs at least one thread")
        if thread_count > len(dom0.vcpus):
            raise ValueError("more netback threads than dom0 VCPUs")
        self.executors = [
            Executor(self.sim, platform.machine.core(dom0.vcpus[i].core_index),
                     "dom0", queue_limit=queue_limit)
            for i in range(thread_count)
        ]
        #: Connected frontends -> (copy cycles per packet, thread index,
        #: that thread's executor, its batch and packet counters),
        #: rebuilt whenever the frontend count changes.
        self._frontends: Dict[object, tuple] = {}
        self.delivered_packets = 0
        self.dropped_bursts = 0
        self.dropped_packets = 0
        # Per-thread registry instruments (no-ops when telemetry is off).
        self._thread_counters = []
        for i in range(thread_count):
            scope = platform.metrics.scope(f"netback.thread{i}")
            self._thread_counters.append((scope.counter("batches"),
                                          scope.counter("packets")))
        nb_scope = platform.metrics.scope("netback")
        nb_scope.gauge("delivered_pkts", lambda: self.delivered_packets)
        nb_scope.gauge("dropped_pkts", lambda: self.dropped_packets)
        nb_scope.gauge("dropped_bursts", lambda: self.dropped_bursts)

    # ------------------------------------------------------------------
    def connect(self, netfront) -> None:
        """Attach a frontend (its ring + event channel pair)."""
        if netfront in self._frontends:
            raise ValueError("frontend already connected")
        self._frontends[netfront] = None
        netfront.backend = self
        self._reprice()

    def disconnect(self, netfront) -> None:
        if netfront not in self._frontends:
            raise ValueError("frontend not connected to this netback")
        del self._frontends[netfront]
        netfront.backend = None
        self._reprice()

    def _reprice(self) -> None:
        # The contention factor follows the frontend count, so every
        # connected frontend's per-packet cost changes with it.
        threads = len(self.executors)
        for netfront in self._frontends:
            thread = netfront.frontend_id % threads
            self._frontends[netfront] = (
                self.cycles_per_packet(netfront.domain), thread,
                self.executors[thread], *self._thread_counters[thread])

    @property
    def frontend_count(self) -> int:
        return len(self._frontends)

    # ------------------------------------------------------------------
    def cycles_per_packet(self, domain: Domain) -> float:
        """The calibrated dom0 copy cost for one packet to ``domain``.

        PVM base + the HVM interrupt-conversion surcharge, inflated by
        the multi-VM contention factor beyond the paper's 10-VM
        baseline.
        """
        cost = self.costs.netback_cycles_per_packet_pvm
        if domain.is_hvm:
            cost += self.costs.netback_hvm_extra_cycles
        inflation = 1.0 + self.costs.netback_contention_per_vm * max(
            0, self.frontend_count - 10)
        return cost * inflation

    def deliver(self, netfront, burst: List[Packet]) -> bool:
        """Queue a burst of guest-bound packets for copy service.

        Returns False (burst dropped) when the chosen backend thread's
        queue is full — the saturation signal.
        """
        frontend = self._frontends.get(netfront)
        if frontend is None:
            raise RuntimeError("frontend not connected to this netback")
        if not burst:
            return True
        per_packet, thread, executor, batches, packets = frontend
        count = len(burst)
        batches.add()
        packets.add(count)
        trace = self.platform.trace
        if trace.live:
            trace.emit("netback", "batch", thread=thread,
                       domain=netfront.domain.id, packets=count)
        if executor.submit(per_packet * count, self._complete, netfront,
                           burst):
            return True
        self.dropped_bursts += 1
        self.dropped_packets += count
        self.platform.trace.emit("netback", "drop", thread=thread,
                                 domain=netfront.domain.id, packets=count)
        return False

    def _complete(self, netfront, burst: List[Packet]) -> None:
        """A burst's copy service ended: one grant-copy batch, then the
        frontend's upcall."""
        count = len(burst)
        first = burst[0]
        # A netperf burst is one header: its sizes are one run.  The
        # O(1) identity check keeps mixed bursts off the C-level count.
        if burst[-1] is first and burst.count(first) == count:
            sizes = [first.size_bytes] * count
        else:
            sizes = [packet.size_bytes for packet in burst]
        netfront.grant_table.copy_burst(self.dom0.id, sizes)
        self.delivered_packets += count
        netfront.receive_burst(burst)

    # ------------------------------------------------------------------
    def capacity_pps(self, domain: Domain) -> float:
        """Theoretical pool service rate for packets to ``domain``."""
        per_thread = self.costs.clock_hz / self.cycles_per_packet(domain)
        return per_thread * len(self.executors)
