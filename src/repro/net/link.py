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

from typing import Callable, List, Optional, Tuple

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

    @property
    def up(self) -> bool:
        return self._up

    def set_carrier(self, up: bool) -> None:
        """Raise or cut the line's carrier (fabric-side cable pull)."""
        self._up = bool(up)

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
        arrivals, queued, tx_free = self.send(
            self.sim.now, 1, wire_bytes(packet.size_bytes, packet.vlan),
            self._tx_free_at, self._queued)
        was_queued = queued > self._queued
        self.account_sent(tx_free, was_queued, 1 - len(arrivals))
        if not arrivals:
            return False
        self.sim.schedule_at(arrivals[0], self._deliver, packet, was_queued)
        return True

    def send(self, now: float, count: int, frame_bytes: int,
             tx_free: float, queued: int) -> Tuple[List[float], int, float]:
        """Serialize ``count`` frames of ``frame_bytes`` wire bytes
        offered at ``now``, on a line whose transmitter goes idle at
        ``tx_free`` with ``queued`` frames waiting.  Touches no state.

        A frame offered while the transmitter is busy queues, up to
        ``queue_frames`` waiting; past that it tail-drops, and so does
        every later frame of the batch.  Returns the arrival times of
        the frames sent, in order (the rest dropped), the queued count
        after, and when the transmitter goes idle after.
        """
        serialization = frame_bytes * 8 / self.rate_bps
        propagation = self.propagation_delay
        arrivals: List[float] = []
        append = arrivals.append
        while count and tx_free <= now:  # the transmitter is idle
            tx_free = now + serialization
            append(tx_free + propagation)
            count -= 1
        # Busy from here on: frames queue behind tx_free while there is
        # room, and the rest tail-drop.
        count = max(0, min(count, self.queue_frames - queued))
        queued += count
        for _ in range(count):
            tx_free += serialization
            append(tx_free + propagation)
        return arrivals, queued, tx_free

    def account_sent(self, tx_free: float, queued: int, dropped: int) -> None:
        """Book a :meth:`send`: the transmitter's idle time, the frames
        it queued and the frames it tail-dropped."""
        self._tx_free_at = tx_free
        self._queued += queued
        if dropped:
            self.dropped.add(dropped)

    def account_delivered(self, frames: int, queued: int,
                          nbytes: int) -> None:
        """Book ``frames`` deliveries of ``nbytes`` wire bytes in all,
        ``queued`` of which had waited in the queue."""
        self._queued -= queued
        self.delivered.add(frames)
        self.delivered_bytes.add(nbytes)

    def _deliver(self, packet: Packet, was_queued: bool) -> None:
        self.account_delivered(1, was_queued,
                               wire_bytes(packet.size_bytes, packet.vlan))
        assert self._sink is not None
        self._sink(packet)
