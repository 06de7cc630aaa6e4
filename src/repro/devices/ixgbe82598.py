"""The Intel 82598 10 GbE controller with VMDq.

The Fig. 19 comparison point.  VMDq (Virtual Machine Device Queues)
offloads *packet classification* to the NIC: each guest gets a hardware
queue pair and received packets land directly in per-guest queues.  But
unlike SR-IOV, the hypervisor/service domain still moves every packet
into the guest ("it still needs VMM intervention for memory protection
and address translation", §1) — so dom0 CPU stays on the critical path.

The 82598 "has only 8 queue pairs, and only 7 guests can get VMDq
support.  Once the VM# exceeds 7, the rest of the VMs share the network
with domain 0, as the conventional PV NIC driver does" (§6.6) — the
behaviour that makes VMDq throughput peak at 10 VMs and decay.
"""

from __future__ import annotations

from itertools import groupby
from typing import Callable, Dict, List, Optional

from repro.net.buffers import PacketBuffer
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.sim.engine import Simulator

#: The 82598 exposes 8 RX/TX queue pairs.
TOTAL_QUEUE_PAIRS = 8
#: Queue 0 is the default/shared queue (dom0's own traffic plus any
#: guest that did not get a dedicated queue).
DEFAULT_QUEUE = 0

QUEUE_DEPTH = 512


class VmdqQueuePair:
    """One hardware queue pair and its interrupt."""

    def __init__(self, sim: Simulator, index: int,
                 notify: Callable[["VmdqQueuePair"], None]):
        self.sim = sim
        self.index = index
        self.rx = PacketBuffer(QUEUE_DEPTH, f"vmdq{index}.rx")
        self._notify = notify
        self.owner: Optional[int] = None  # guest id, None = unassigned
        self.interrupts = 0

    def receive(self, burst: List[Packet]) -> int:
        accepted = self.rx.push_burst(burst)
        if accepted:
            self.interrupts += 1
            self._notify(self)
        return accepted


class Ixgbe82598Port:
    """The 10 GbE VMDq port: MAC-classified queues, dom0-mediated."""

    LINE_RATE_BPS = 10e9

    def __init__(self, sim: Simulator, name: str = "ixgbe0"):
        self.sim = sim
        self.name = name
        #: dom0's per-queue interrupt handler (netback-style service).
        self.interrupt_sink: Optional[Callable[[VmdqQueuePair], None]] = None
        self.queues = [
            VmdqQueuePair(sim, i, self._queue_interrupt)
            for i in range(TOTAL_QUEUE_PAIRS)
        ]
        self._mac_to_queue: Dict[MacAddress, int] = {}
        self.wire_rx_packets = 0
        self.default_queue_packets = 0

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------
    def assign_queue(self, guest_id: int, mac: MacAddress) -> Optional[VmdqQueuePair]:
        """Give ``guest_id`` a dedicated queue, if one is free.

        Returns None when all non-default queues are taken — the guest
        then falls back to the shared default queue, exactly the >7-VM
        regime of Fig. 19.
        """
        for queue in self.queues[DEFAULT_QUEUE + 1:]:
            if queue.owner is None:
                queue.owner = guest_id
                self._mac_to_queue[mac] = queue.index
                return queue
        self._mac_to_queue[mac] = DEFAULT_QUEUE
        return None

    def release_queue(self, guest_id: int) -> None:
        for queue in self.queues:
            if queue.owner == guest_id:
                queue.owner = None
        self._mac_to_queue = {
            mac: index for mac, index in self._mac_to_queue.items()
            if index == DEFAULT_QUEUE or self.queues[index].owner is not None
        }

    @property
    def dedicated_queues_available(self) -> int:
        return sum(1 for q in self.queues[DEFAULT_QUEUE + 1:] if q.owner is None)

    def queue_of(self, mac: MacAddress) -> int:
        return self._mac_to_queue.get(mac, DEFAULT_QUEUE)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def wire_receive(self, burst: List[Packet]) -> None:
        """Classify an arriving burst into per-guest queues, by header
        run: a run is one packet referenced several times (a netperf
        burst is one run), so each run costs one classification."""
        self.wire_rx_packets += len(burst)
        by_queue: Dict[int, List[Packet]] = {}
        for packet, run in groupby(burst):
            by_queue.setdefault(self.queue_of(packet.dst), []).extend(run)
        for index, packets in by_queue.items():
            if index == DEFAULT_QUEUE:
                self.default_queue_packets += len(packets)
            self.queues[index].receive(packets)

    def _queue_interrupt(self, queue: VmdqQueuePair) -> None:
        if self.interrupt_sink is not None:
            self.interrupt_sink(queue)
