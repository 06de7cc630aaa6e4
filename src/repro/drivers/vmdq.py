"""The dom0 service path for VMDq queues (§6.6).

VMDq moves *classification* into the NIC, but dom0 still copies every
packet into the guest and performs protection/translation — so the
service pool is structurally netback with a cheaper per-packet cost for
queue-owning guests.  Guests beyond the 7 dedicated queues ride the
default queue through the conventional (more expensive) PV path.
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, List, Optional

from repro.devices.ixgbe82598 import DEFAULT_QUEUE, Ixgbe82598Port, VmdqQueuePair
from repro.hw.cpu import Executor
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.vmm.domain import Domain


class VmdqService:
    """dom0's per-queue interrupt service for an 82598."""

    def __init__(self, platform, dom0: Domain, port: Ixgbe82598Port,
                 threads: Optional[int] = None, queue_limit: int = 256):
        self.platform = platform
        self.sim = platform.sim
        self.costs = platform.costs
        self.dom0 = dom0
        self.port = port
        thread_count = threads if threads is not None else self.costs.netback_threads
        self.executors = [
            Executor(self.sim, platform.machine.core(dom0.vcpus[i].core_index),
                     "dom0", queue_limit=queue_limit)
            for i in range(thread_count)
        ]
        #: MAC -> (netfront-like sink, has dedicated queue).
        self._guests: Dict[MacAddress, "tuple[object, bool]"] = {}
        port.interrupt_sink = self._queue_interrupt
        self.delivered_packets = 0
        self.dropped_packets = 0

    # ------------------------------------------------------------------
    def register_guest(self, netfront, mac: MacAddress) -> bool:
        """Attach a guest; returns True if it won a dedicated queue."""
        queue = self.port.assign_queue(netfront.domain.id, mac)
        dedicated = queue is not None
        self._guests[mac] = (netfront, dedicated)
        return dedicated

    def unregister_guest(self, netfront, mac: MacAddress) -> None:
        self.port.release_queue(netfront.domain.id)
        self._guests.pop(mac, None)

    @property
    def dedicated_guest_count(self) -> int:
        return sum(1 for _, dedicated in self._guests.values() if dedicated)

    # ------------------------------------------------------------------
    def cycles_per_packet(self, dedicated: bool) -> float:
        base = (self.costs.vmdq_dom0_cycles_per_packet if dedicated
                else self.costs.vmdq_fallback_cycles_per_packet)
        inflation = 1.0 + self.costs.netback_contention_per_vm * max(
            0, len(self._guests) - 10)
        return base * inflation

    def _queue_interrupt(self, queue: VmdqQueuePair) -> None:
        """Drain a hardware queue and dispatch copy work per guest.

        Dedicated queues spread across the service threads; the shared
        *default* queue is serviced by a single thread, which is the
        structural bottleneck behind Fig. 19's decay — once more than 7
        guests share the default queue, its one thread saturates.
        """
        burst = queue.rx.drain()
        # Grouped by header run: one lookup per run, not per packet.
        by_mac: Dict[MacAddress, List[Packet]] = {}
        for packet, run in groupby(burst):
            by_mac.setdefault(packet.dst, []).extend(run)
        for mac, packets in by_mac.items():
            entry = self._guests.get(mac)
            if entry is None:
                self.dropped_packets += len(packets)
                continue
            netfront, dedicated = entry
            if queue.index == DEFAULT_QUEUE:
                executor = self.executors[0]
            else:
                spread = self.executors[1:] or self.executors
                executor = spread[queue.index % len(spread)]
            cycles = self.cycles_per_packet(dedicated) * len(packets)
            if not executor.submit(cycles, self._complete, netfront,
                                   packets):
                self.dropped_packets += len(packets)

    def _complete(self, netfront, packets: List[Packet]) -> None:
        self.delivered_packets += len(packets)
        netfront.receive_burst(packets)
