"""NAPI: budgeted interrupt-to-poll processing.

Linux's NAPI discipline (the paper's [27]) bounds how much RX work one
softirq invocation does: the driver polls its ring in ``budget``-sized
chunks, re-queuing itself while packets remain.  We keep the discipline
(it shapes burst delivery into the socket buffer) and its statistics.
"""

from __future__ import annotations

from typing import List

from repro.hw.dma import DescriptorRing
from repro.net.packet import Packet

#: Linux's default NAPI budget.
DEFAULT_BUDGET = 64


class NapiContext:
    """Per-interface NAPI state and statistics."""

    def __init__(self, budget: int = DEFAULT_BUDGET):
        if budget <= 0:
            raise ValueError("NAPI budget must be positive")
        self.budget = budget
        self.polls = 0
        self.packets = 0
        self.exhausted_polls = 0  # polls that used the whole budget

    def poll(self, ring: DescriptorRing) -> List[Packet]:
        """One poll invocation: reap at most ``budget`` descriptors and
        return their packets."""
        reaped = ring.reap(limit=self.budget)
        count = len(reaped)
        self.account(1, count, count // self.budget)
        return reaped

    def account(self, polls: int, packets: int, exhausted: int) -> None:
        """Book ``polls`` polls that reaped ``packets`` in all,
        ``exhausted`` of them using their whole budget."""
        self.polls += polls
        self.packets += packets
        self.exhausted_polls += exhausted

    def poll_all(self, ring: DescriptorRing) -> List[Packet]:
        """Poll until the ring is clean (the softirq re-queue loop)."""
        collected: List[Packet] = []
        while True:
            chunk = self.poll(ring)
            collected.extend(chunk)
            if len(chunk) < self.budget:
                return collected
