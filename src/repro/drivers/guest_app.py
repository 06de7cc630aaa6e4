"""The netserver application model.

The guest runs netperf's netserver (§6.1), reading datagrams out of a
finite socket buffer.  §5.3's buffer arithmetic hinges on it: the stack
can park at most ``ap_bufs`` packets in the socket buffer per interrupt
batch, plus whatever the application drains concurrently (the ``r``
redundancy factor).  A batch larger than ``ap_bufs x r`` loses the
excess — the RX collapse of Fig. 10's fixed-frequency curves.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.core.costs import CostModel
from repro.net.packet import (
    IP_HEADER_BYTES,
    Packet,
    Protocol,
    TCP_HEADER_BYTES,
    UDP_HEADER_BYTES,
)
from repro.sim.stats import Histogram

#: Latency histogram bin: 10 microseconds.
LATENCY_BIN = 10e-6


def _payload(size_bytes: int, protocol: Protocol) -> int:
    """Transport payload of one packet: application goodput counts it,
    matching how netperf reports throughput (957 Mbps = payload over a
    1 Gbps line, not wire bytes)."""
    if protocol is Protocol.UDP:
        return size_bytes - IP_HEADER_BYTES - UDP_HEADER_BYTES
    return size_bytes - IP_HEADER_BYTES - TCP_HEADER_BYTES


class NetserverApp:
    """Receives packet batches through a bounded socket buffer."""

    def __init__(self, costs: Optional[CostModel] = None, name: str = ""):
        self.costs = costs or CostModel()
        self.name = name
        #: Effective per-batch sink capacity: socket buffer plus the
        #: fraction the app drains while the batch is being delivered.
        self.batch_capacity = int(self.costs.aic_ap_bufs
                                  * self.costs.aic_redundancy)
        self.rx_packets = 0
        self.rx_bytes = 0
        self.dropped_packets = 0
        #: End-to-end packet latency (send timestamp -> app delivery);
        #: dominated by the interrupt-coalescing delay, the §5.3
        #: latency/CPU tradeoff.
        self.latency = Histogram(LATENCY_BIN, f"{name}.latency")

    def deliver(self, burst: List[Packet], now: float = 0.0,
                capped: bool = True) -> Tuple[int, int]:
        """Deliver one batch; returns (accepted, dropped).

        ``capped`` applies the per-interrupt socket-buffer bound — the
        VF ISR path where the whole coalescing window lands at once.
        Flow-controlled paths (netback's copy, which paces itself
        against the frontend ring) pass ``capped=False``.  Accepted
        packets are booked as runs of one shared header (a netperf
        burst is one run); :meth:`account` adds latencies per packet,
        so the books do not depend on how packets were grouped.
        """
        total = len(burst)
        accepted = min(total, self.batch_capacity) if capped else total
        latencies: List[float] = []
        counts: List[int] = []
        payloads: List[int] = []
        header = None
        for packet in burst[:accepted]:
            if packet is header:
                counts[-1] += 1
                continue
            header = packet
            latencies.append(now - packet.created_at)
            counts.append(1)
            payloads.append(_payload(packet.size_bytes, packet.protocol))
        self.account(latencies, counts, payloads, total - accepted)
        return accepted, total - accepted

    def deliver_fluid(self, fires, counts: List[int], times: List[float],
                      size_bytes: int, protocol: Protocol) -> int:
        """Deliver a collapsed window's interrupts; returns the accepted
        count.

        ``fires`` holds the fluid datapath's virtual interrupts in
        order, as parallel lists: when each fired, how many packets it
        drained, and where its span of runs ends (run ``k``: ``counts[k]``
        packets sent at ``times[k]``).  Every packet shares ``size_bytes``
        and ``protocol``.  Each interrupt is capped, and its runs merge,
        as :meth:`deliver` caps and merges one batch.
        """
        capacity = self.batch_capacity
        latencies: List[float] = []
        taken: List[int] = []
        dropped = 0
        start = 0
        for now, drained, stop in zip(*fires):
            remaining = drained if drained <= capacity else capacity
            dropped += drained - remaining
            sent = None
            for k in range(start, stop):
                if remaining <= 0:
                    break
                n = counts[k]
                if n > remaining:
                    n = remaining
                remaining -= n
                if times[k] == sent:
                    taken[-1] += n
                    continue
                sent = times[k]
                latencies.append(now - sent)
                taken.append(n)
            start = stop
        payloads = [_payload(size_bytes, protocol)] * len(taken)
        return self.account(latencies, taken, payloads, dropped)

    def account(self, latencies: List[float], counts: List[int],
                payloads: List[int], dropped: int) -> int:
        """Book delivered packets and socket-buffer drops; returns the
        accepted count.

        Packets come as runs, in delivery order: ``counts[i]`` packets
        of end-to-end latency ``latencies[i]`` carrying ``payloads[i]``
        transport bytes each.  The latency sums take one addition per
        packet in delivery order, so they are bit-identical however the
        packets were grouped into runs.
        """
        latency = self.latency
        bins = latency._bins
        bin_get = bins.get
        bin_width = latency.bin_width
        lat_sum = latency._sum
        lat_sum_sq = latency._sum_sq
        floor = math.floor
        accepted = 0
        payload = 0
        for value, n, per_packet in zip(latencies, counts, payloads):
            index = int(floor(value / bin_width))
            bins[index] = bin_get(index, 0) + n
            square = value * value
            # One addition per packet, left to right: unrolled by eight
            # (a netperf burst) with the remainder one at a time.
            left = n
            while left >= 8:
                lat_sum = (lat_sum + value + value + value + value
                           + value + value + value + value)
                lat_sum_sq = (lat_sum_sq + square + square + square + square
                              + square + square + square + square)
                left -= 8
            while left:
                lat_sum += value
                lat_sum_sq += square
                left -= 1
            accepted += n
            if per_packet > 0:
                payload += per_packet * n
        latency._count += accepted
        latency._sum = lat_sum
        latency._sum_sq = lat_sum_sq
        self.rx_packets += accepted
        self.rx_bytes += payload
        self.dropped_packets += dropped
        return accepted

    def throughput_bps(self, elapsed: float) -> float:
        """Delivered application goodput over a measurement window."""
        if elapsed <= 0:
            return 0.0
        return self.rx_bytes * 8 / elapsed

    @property
    def loss_rate(self) -> float:
        offered = self.rx_packets + self.dropped_packets
        return self.dropped_packets / offered if offered else 0.0

    def reset(self) -> None:
        self.rx_packets = 0
        self.rx_bytes = 0
        self.dropped_packets = 0
        self.latency = Histogram(LATENCY_BIN, f"{self.name}.latency")
