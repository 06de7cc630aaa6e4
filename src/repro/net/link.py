"""Point-to-point Ethernet links.

A :class:`Link` models one direction of a full-duplex line: frames are
serialized at the line rate (including Ethernet preamble/IPG overhead),
experience a fixed propagation delay, and are handed to the receiver's
``receive(packet)`` method.  Frames offered while the transmitter is busy
queue up to ``queue_frames`` deep, then tail-drop — saturating a 1 Gbps
port at exactly its line rate, which is what pins the paper's per-port
throughput at 957 Mbps.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.packet import Packet, wire_bytes
from repro.sim.engine import Simulator
from repro.sim.stats import Counter


class Link:
    """One direction of a full-duplex point-to-point Ethernet line."""

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float = 0.0,
        queue_frames: int = 128,
        name: str = "",
    ):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if queue_frames < 0:
            raise ValueError("queue depth must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.queue_frames = queue_frames
        self.name = name
        self._sink: Optional[Callable[[Packet], None]] = None
        #: Carrier state (the cable itself).  Frames offered while the
        #: carrier is down drop — a real NIC's TX DMA into a dead line.
        self._up: bool = True
        #: Simulated time at which the transmitter becomes idle.
        self._tx_free_at: float = 0.0
        self._queued: int = 0
        self.delivered = Counter(f"{name}.delivered")
        self.delivered_bytes = Counter(f"{name}.delivered_bytes")
        self.dropped = Counter(f"{name}.dropped")

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Attach the receiver callback for this direction."""
        self._sink = sink

    def serialization_delay(self, packet: Packet) -> float:
        """Time to clock the frame (with Ethernet overhead) onto the wire."""
        return wire_bytes(packet.size_bytes, packet.vlan) * 8 / self.rate_bps

    @property
    def up(self) -> bool:
        return self._up

    def set_carrier(self, up: bool) -> None:
        """Raise or cut the line's carrier (fabric-side cable pull)."""
        self._up = bool(up)

    @property
    def busy(self) -> bool:
        return self.sim.now < self._tx_free_at

    @property
    def queue_depth(self) -> int:
        return self._queued

    def transmit(self, packet: Packet) -> bool:
        """Offer a frame for transmission.

        Returns False (drop) if the transmit queue is full.  Otherwise the
        frame is delivered to the sink after queuing + serialization +
        propagation delay.
        """
        if self._sink is None:
            raise RuntimeError(f"link {self.name!r} has no receiver connected")
        if not self._up:
            self.dropped.add()
            return False
        start = max(self.sim.now, self._tx_free_at)
        backlog_delay = start - self.sim.now
        # Frames ahead of us in the queue are already accounted inside
        # _tx_free_at; the queue bound is on how far ahead we may book.
        if backlog_delay > 0:
            if self._queued >= self.queue_frames:
                self.dropped.add()
                return False
            self._queued += 1
        serialization = self.serialization_delay(packet)
        self._tx_free_at = start + serialization
        arrival = self._tx_free_at + self.propagation_delay
        self.sim.schedule_at(arrival, self._deliver, packet, backlog_delay > 0)
        return True

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the line spent transmitting."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, (self.delivered_bytes.value * 8 / self.rate_bps) / elapsed)

    def _deliver(self, packet: Packet, was_queued: bool) -> None:
        if was_queued:
            self._queued -= 1
        self.delivered.add()
        self.delivered_bytes.add(wire_bytes(packet.size_bytes, packet.vlan))
        assert self._sink is not None
        self._sink(packet)


def duplex_pair(
    sim: Simulator,
    rate_bps: float,
    propagation_delay: float = 0.0,
    queue_frames: int = 128,
    name: str = "link",
) -> "tuple[Link, Link]":
    """Create the two directions of a full-duplex line."""
    forward = Link(sim, rate_bps, propagation_delay, queue_frames, f"{name}.fwd")
    backward = Link(sim, rate_bps, propagation_delay, queue_frames, f"{name}.rev")
    return forward, backward
