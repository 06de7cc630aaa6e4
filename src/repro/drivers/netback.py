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

from typing import List, Optional

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
        self._frontends: List["object"] = []
        self.delivered_packets = 0
        self.dropped_bursts = 0
        self.dropped_packets = 0
        # Per-thread registry instruments (no-ops when telemetry is off).
        self._thread_batches = []
        self._thread_packets = []
        for i in range(thread_count):
            scope = platform.metrics.scope(f"netback.thread{i}")
            self._thread_batches.append(scope.counter("batches"))
            self._thread_packets.append(scope.counter("packets"))
        nb_scope = platform.metrics.scope("netback")
        nb_scope.gauge("delivered_pkts", lambda: self.delivered_packets)
        nb_scope.gauge("dropped_pkts", lambda: self.dropped_packets)
        nb_scope.gauge("dropped_bursts", lambda: self.dropped_bursts)

    # ------------------------------------------------------------------
    def connect(self, netfront) -> None:
        """Attach a frontend (its ring + event channel pair)."""
        if netfront in self._frontends:
            raise ValueError("frontend already connected")
        self._frontends.append(netfront)
        netfront.backend = self

    def disconnect(self, netfront) -> None:
        self._frontends.remove(netfront)
        netfront.backend = None

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
        if netfront not in self._frontends:
            raise RuntimeError("frontend not connected to this netback")
        if not burst:
            return True
        thread = netfront.frontend_id % len(self.executors)
        executor = self.executors[thread]
        cycles = self.cycles_per_packet(netfront.domain) * len(burst)
        self._thread_batches[thread].add()
        self._thread_packets[thread].add(len(burst))
        self.platform.trace.emit("netback", "batch", thread=thread,
                                 domain=netfront.domain.id,
                                 packets=len(burst))

        def complete() -> None:
            netfront.grant_table.copy_burst(
                self.dom0.id, [packet.size_bytes for packet in burst])
            self.delivered_packets += len(burst)
            netfront.receive_burst(burst)

        accepted = executor.submit(cycles, complete)
        if not accepted:
            self.dropped_bursts += 1
            self.dropped_packets += len(burst)
            self.platform.trace.emit("netback", "drop", thread=thread,
                                     domain=netfront.domain.id,
                                     packets=len(burst))
        return accepted

    # ------------------------------------------------------------------
    def capacity_pps(self, domain: Domain) -> float:
        """Theoretical pool service rate for packets to ``domain``."""
        per_thread = self.costs.clock_hz / self.cycles_per_packet(domain)
        return per_thread * len(self.executors)
