"""Bounded packet buffers with drop accounting.

Buffer sizing is central to the paper's adaptive interrupt coalescing
(§5.3): the interrupt interval must stay short enough that
``pps × t_d`` never exceeds ``min(ap_bufs, dd_bufs)`` or the receive path
drops packets — exactly the RX-throughput collapse shown in Fig. 10 for
fixed 2 kHz / 1 kHz coalescing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.net.packet import Packet


@dataclass
class BufferStats:
    """Cumulative accounting for a :class:`PacketBuffer`."""

    enqueued: int = 0
    dequeued: int = 0
    dropped: int = 0
    #: Packets discarded by :meth:`PacketBuffer.clear` (device reset);
    #: counted so occupancy stays an exact conservation law —
    #: ``len(buffer) == enqueued - dequeued - cleared`` always holds.
    cleared: int = 0
    peak_depth: int = 0

    @property
    def drop_rate(self) -> float:
        offered = self.enqueued + self.dropped
        return self.dropped / offered if offered else 0.0


class PacketBuffer:
    """A FIFO of packets with a hard capacity and tail-drop semantics.

    Models both the device-driver descriptor backlog (``dd_bufs`` = 1024
    descriptors in the paper's default guest) and the socket/application
    buffer (``ap_bufs`` = 64).
    """

    def __init__(self, capacity: int, name: str = ""):
        if capacity <= 0:
            raise ValueError("buffer capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._queue: Deque[Packet] = deque()
        self.stats = BufferStats()

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def free(self) -> int:
        return self.capacity - len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    def push(self, packet: Packet) -> bool:
        """Enqueue; returns False (and counts a drop) when full."""
        if self.full:
            self.stats.dropped += 1
            return False
        self._queue.append(packet)
        self.stats.enqueued += 1
        self.stats.peak_depth = max(self.stats.peak_depth, len(self._queue))
        return True

    def push_burst(self, packets: List[Packet]) -> int:
        """Enqueue a burst; returns how many were accepted.

        Tail drop with nothing dequeued in between: the burst's leading
        packets fill the free room and the rest drop, booked as
        :meth:`push` would book them one by one."""
        queue = self._queue
        offered = len(packets)
        accepted = min(offered, self.capacity - len(queue))
        queue.extend(packets[:accepted])
        stats = self.stats
        stats.enqueued += accepted
        stats.dropped += offered - accepted
        stats.peak_depth = max(stats.peak_depth, len(queue))
        return accepted

    def pop(self) -> Optional[Packet]:
        """Dequeue the oldest packet, or None when empty."""
        if not self._queue:
            return None
        self.stats.dequeued += 1
        return self._queue.popleft()

    def pop_burst(self, limit: int) -> List[Packet]:
        """Dequeue up to ``limit`` packets (NAPI-style budgeted poll)."""
        if limit < 0:
            raise ValueError("burst limit must be non-negative")
        burst: List[Packet] = []
        while self._queue and len(burst) < limit:
            burst.append(self._queue.popleft())
        self.stats.dequeued += len(burst)
        return burst

    def drain(self) -> List[Packet]:
        """Dequeue everything."""
        return self.pop_burst(len(self._queue))

    def clear(self) -> None:
        """Discard contents without counting drops (device reset)."""
        self.stats.cleared += len(self._queue)
        self._queue.clear()
