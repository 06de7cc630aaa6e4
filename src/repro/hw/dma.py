"""DMA descriptor rings, as both the driver and the NIC see them.

A VF's "performance critical resources" are exactly these rings (paper
§4.1): the driver posts buffer addresses and advances the *tail*; the
device fills buffers, writes back completion status and advances the
*head*.  Because addresses in the ring are guest-physical, every device
access goes through the IOMMU (that is what makes direct assignment
safe).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.packet import Packet


class RingFullError(RuntimeError):
    """Driver tried to post into a ring with no free descriptors."""


@dataclass
class Descriptor:
    """One ring slot: a buffer address plus completion status."""

    buffer_addr: int = 0
    buffer_len: int = 0
    #: Device "descriptor done" writeback.
    done: bool = False
    #: The packet the device placed (RX) or the driver posted (TX).
    packet: Optional[Packet] = None


class DescriptorRing:
    """A circular descriptor queue with head/tail semantics.

    Convention (Intel NICs): slots in ``[head, tail)`` belong to the
    *device*; the entry at ``tail`` is where software posts next.  The
    ring is full when advancing tail would make it collide with head —
    one slot is always left unused, as on real hardware.
    """

    def __init__(self, size: int, name: str = ""):
        if size < 2 or size & (size - 1):
            raise ValueError("ring size must be a power of two >= 2")
        self.size = size
        self.name = name
        self._mask = size - 1  # size is a power of two
        self.slots = [Descriptor() for _ in range(size)]
        self.head = 0  # device-owned consumption point
        self.tail = 0  # software production point
        self._clean = 0  # driver cleanup cursor, trails head
        self.posted = 0
        self.completed = 0

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    @property
    def device_owned(self) -> int:
        """Descriptors currently available to the device."""
        return (self.tail - self.head) % self.size

    @property
    def free(self) -> int:
        """Descriptors software may still post (one slot reserved)."""
        return self.size - 1 - self.device_owned

    @property
    def empty(self) -> bool:
        return self.head == self.tail

    @property
    def full(self) -> bool:
        return self.free == 0

    # ------------------------------------------------------------------
    # software side
    # ------------------------------------------------------------------
    def post(self, buffer_addr: int, buffer_len: int,
             packet: Optional[Packet] = None) -> int:
        """Post one descriptor at tail; returns the slot index."""
        if self.full:
            raise RingFullError(f"ring {self.name!r} is full")
        index = self.tail
        slot = self.slots[index]
        slot.buffer_addr = buffer_addr
        slot.buffer_len = buffer_len
        slot.done = False
        slot.packet = packet
        self.tail = (self.tail + 1) % self.size
        self.posted += 1
        return index

    def reap(self, limit: Optional[int] = None) -> List[Descriptor]:
        """Collect completed descriptors in order (driver cleanup path).

        Walks from the oldest software-visible slot and stops at the first
        descriptor the device has not written back yet.
        """
        reaped: List[Descriptor] = []
        append = reaped.append
        budget = self.size if limit is None else limit
        slots = self.slots
        mask = self._mask
        index = self._clean
        while budget > 0:
            slot = slots[index]
            if not slot.done:
                break
            append(slot)
            slot.done = False
            index = (index + 1) & mask
            budget -= 1
        self._clean = index
        return reaped

    def program_buffers(self, base_addr: int, stride: int,
                        buffer_len: int) -> None:
        """Write the fixed slot-to-buffer mapping into every slot.

        Slot ``i`` gets buffer ``base_addr + i * stride``.  Drivers call
        this once at probe time; afterwards :meth:`rearm_until_full`
        can re-post slots without touching their programming.  Covers
        all ``size`` slots — including the one :meth:`post_until_full`
        leaves reserved on a full fill, which otherwise would reach the
        device unprogrammed once the ring rotates.
        """
        for index, slot in enumerate(self.slots):
            slot.buffer_addr = base_addr + index * stride
            slot.buffer_len = buffer_len

    def post_until_full(self, base_addr: int, stride: int,
                        buffer_len: int) -> int:
        """Post empty buffers at tail until the ring is full (RX refill).

        Slot ``i`` gets buffer ``base_addr + i * stride`` — the fixed
        slot-to-buffer mapping RX drivers use — so a refill is pure
        cursor arithmetic instead of one :meth:`post` call per slot.
        Returns the number of descriptors posted.
        """
        size = self.size
        mask = self._mask
        slots = self.slots
        tail = self.tail
        count = size - 1 - ((tail - self.head) % size)
        for _ in range(count):
            slot = slots[tail]
            slot.buffer_addr = base_addr + tail * stride
            slot.buffer_len = buffer_len
            slot.done = False
            slot.packet = None
            tail = (tail + 1) & mask
        self.tail = tail
        self.posted += count
        return count

    def rearm_until_full(self) -> int:
        """Return reaped slots to the device, keeping their programming.

        The RX steady state: buffer address and length were written at
        probe time by :meth:`program_buffers` and never change (fixed
        slot-to-buffer mapping), and :meth:`reap` already cleared
        ``done`` — so re-posting only moves ownership and drops the
        consumed packet references.  Returns the number posted.
        """
        size = self.size
        mask = self._mask
        slots = self.slots
        tail = self.tail
        count = size - 1 - ((tail - self.head) % size)
        for _ in range(count):
            slots[tail].packet = None
            tail = (tail + 1) & mask
        self.tail = tail
        self.posted += count
        return count

    # ------------------------------------------------------------------
    # device side
    # ------------------------------------------------------------------
    def consume(self, packet: Optional[Packet] = None) -> Optional[Descriptor]:
        """Device takes the descriptor at head and completes it."""
        if self.empty:
            return None
        slot = self.slots[self.head]
        slot.done = True
        if packet is not None:
            slot.packet = packet
        self.head = (self.head + 1) % self.size
        self.completed += 1
        return slot

    def reset(self) -> None:
        """Device reset: everything returns to software, state cleared."""
        self.head = 0
        self.tail = 0
        self._clean = 0
        for slot in self.slots:
            slot.done = False
            slot.packet = None
