"""Packets and Ethernet framing arithmetic.

The paper reports per-port goodput of 957 Mbps (UDP_STREAM) and 940 Mbps
(TCP_STREAM) on 1 Gbps links (§5.3, Figs. 8-9).  Those numbers are pure
framing arithmetic, reproduced here from first principles:

* on-wire cost per frame = preamble (8) + frame (14 hdr + payload + 4 CRC)
  + inter-packet gap (12) = payload + 38 bytes;
* UDP payload per 1500-byte MTU frame = 1500 − 20 (IP) − 8 (UDP) = 1472;
  goodput = 1472 / 1538 × 1 Gbps = 957.1 Mbps;
* TCP payload = 1500 − 20 (IP) − 32 (TCP + timestamps) = 1448;
  goodput = 1448 / 1538 × 1 Gbps = 941.5 Mbps.
"""

from __future__ import annotations

import itertools
from enum import Enum

from repro.net.mac import MacAddress, VLAN_NONE

#: Ethernet header (14) + CRC (4).
ETHERNET_HEADER_BYTES = 14
ETHERNET_CRC_BYTES = 4
#: Preamble + start-frame delimiter (8) and minimum inter-packet gap (12).
ETHERNET_PREAMBLE_BYTES = 8
ETHERNET_IPG_BYTES = 12
#: Total per-frame overhead beyond the IP packet itself.
ETHERNET_OVERHEAD_BYTES = (
    ETHERNET_HEADER_BYTES
    + ETHERNET_CRC_BYTES
    + ETHERNET_PREAMBLE_BYTES
    + ETHERNET_IPG_BYTES
)
#: 802.1Q tag inserted when a VLAN is present.
VLAN_TAG_BYTES = 4

IP_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8
#: TCP header with the timestamp option netperf negotiates (20 + 12).
TCP_HEADER_BYTES = 32

DEFAULT_MTU = 1500


class Protocol(Enum):
    """Transport protocol carried by a packet."""

    UDP = "udp"
    TCP = "tcp"


#: Process-wide fallback sequence, used only for packets created outside
#: a :class:`PacketPool`.  Simulations that must replay identically
#: within one process route all packet creation through a per-testbed
#: pool, whose sequence restarts at 0 for every run.
_sequence = itertools.count()


class Packet:
    """A modelled network packet (one MTU-sized frame unless stated).

    ``size_bytes`` is the IP packet size (headers included, Ethernet
    framing excluded); use :func:`wire_bytes` for the on-wire cost.

    A plain slotted class rather than a dataclass: the simulation
    creates hundreds of thousands of these per simulated second, and
    construction cost is the benchmark suite's hottest line.
    """

    __slots__ = ("src", "dst", "size_bytes", "vlan", "protocol",
                 "flow_id", "created_at", "seq")

    def __init__(self, src: MacAddress, dst: MacAddress,
                 size_bytes: int = DEFAULT_MTU, vlan: int = VLAN_NONE,
                 protocol: Protocol = Protocol.UDP, flow_id: int = 0,
                 created_at: float = 0.0):
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.vlan = vlan
        self.protocol = protocol
        self.flow_id = flow_id
        self.created_at = created_at
        self.seq = next(_sequence)

    @property
    def payload_bytes(self) -> int:
        """Application payload after IP + transport headers."""
        header = UDP_HEADER_BYTES if self.protocol is Protocol.UDP else TCP_HEADER_BYTES
        return max(0, self.size_bytes - IP_HEADER_BYTES - header)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Packet(seq={self.seq}, {self.src}->{self.dst}, "
                f"{self.size_bytes}B, {self.protocol.value})")


class PacketPool:
    """A run-scoped :class:`Packet` allocator with its own sequence.

    The pool's counter restarts at 0, so a (scenario, seed) pair
    replays with identical ``Packet.seq`` values no matter how many
    runs preceded it in the process — unlike the module-global
    fallback sequence.  Each testbed owns one pool.  Packets are never
    returned to it: a refcount-gated free list was measured and moved
    no perfbench workload (docs/performance.md).
    """

    __slots__ = ("_seq", "acquired")

    def __init__(self) -> None:
        self._seq = 0
        #: Total packets ever handed out; the invariant auditor checks
        #: it against ``next_seq``.
        self.acquired = 0

    @property
    def next_seq(self) -> int:
        """The sequence number the next acquired packet will get."""
        return self._seq

    def acquire_burst(self, count: int, src: MacAddress, dst: MacAddress,
                      size_bytes: int = DEFAULT_MTU, vlan: int = VLAN_NONE,
                      protocol: Protocol = Protocol.UDP, flow_id: int = 0,
                      created_at: float = 0.0) -> list:
        """``count`` packets sharing one header tuple, consecutive seqs."""
        if size_bytes <= 0:
            raise ValueError("packet size must be positive")
        seq = self._seq
        self._seq = seq + count
        self.acquired += count
        new = Packet.__new__
        burst = []
        append = burst.append
        for _ in range(count):
            packet = new(Packet)
            packet.src = src
            packet.dst = dst
            packet.size_bytes = size_bytes
            packet.vlan = vlan
            packet.protocol = protocol
            packet.flow_id = flow_id
            packet.created_at = created_at
            packet.seq = seq
            seq += 1
            append(packet)
        return burst


def wire_bytes(size_bytes: int, vlan: int = VLAN_NONE) -> int:
    """On-wire bytes consumed by an IP packet of ``size_bytes``."""
    tag = VLAN_TAG_BYTES if vlan != VLAN_NONE else 0
    return size_bytes + ETHERNET_OVERHEAD_BYTES + tag


def frames_for_message(message_bytes: int, mtu: int = DEFAULT_MTU,
                       protocol: Protocol = Protocol.UDP) -> int:
    """Number of MTU-limited frames a transport message fragments into."""
    if message_bytes <= 0:
        raise ValueError("message must be positive")
    header = UDP_HEADER_BYTES if protocol is Protocol.UDP else TCP_HEADER_BYTES
    payload_per_frame = mtu - IP_HEADER_BYTES - header
    return -(-message_bytes // payload_per_frame)  # ceil division


def udp_goodput_bps(line_rate_bps: float, mtu: int = DEFAULT_MTU,
                    vlan: int = VLAN_NONE) -> float:
    """Maximum UDP application goodput on a line of ``line_rate_bps``."""
    payload = mtu - IP_HEADER_BYTES - UDP_HEADER_BYTES
    return line_rate_bps * payload / wire_bytes(mtu, vlan)


def tcp_goodput_bps(line_rate_bps: float, mtu: int = DEFAULT_MTU,
                    vlan: int = VLAN_NONE) -> float:
    """Maximum TCP application goodput on a line of ``line_rate_bps``."""
    payload = mtu - IP_HEADER_BYTES - TCP_HEADER_BYTES
    return line_rate_bps * payload / wire_bytes(mtu, vlan)


def packets_per_second(throughput_bps: float, mtu: int = DEFAULT_MTU,
                       protocol: Protocol = Protocol.UDP) -> float:
    """Packet rate needed to carry ``throughput_bps`` of goodput."""
    header = UDP_HEADER_BYTES if protocol is Protocol.UDP else TCP_HEADER_BYTES
    payload = mtu - IP_HEADER_BYTES - header
    if payload <= 0:
        raise ValueError("MTU too small for headers")
    return throughput_bps / (payload * 8)
