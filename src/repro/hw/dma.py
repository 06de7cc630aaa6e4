"""DMA descriptor rings, as both the driver and the NIC see them.

A VF's "performance critical resources" are exactly these rings (paper
§4.1): the driver posts buffer addresses and advances the *tail*; the
device fills buffers, writes back completion status and advances the
*head*.  Because addresses in the ring are guest-physical, every device
access goes through the IOMMU (that is what makes direct assignment
safe).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.net.packet import Packet


class RingFullError(RuntimeError):
    """Driver tried to post into a ring with no free descriptors."""


class DescriptorRing:
    """A circular descriptor queue with head/tail semantics.

    Convention (Intel NICs): slots in ``[head, tail)`` belong to the
    *device*; the entry at ``tail`` is where software posts next.  The
    ring is full when advancing tail would make it collide with head —
    one slot is always left unused, as on real hardware.

    Slot state lives in parallel per-ring arrays, not one object per
    slot, so the bulk driver operations are slice writes over at most
    two runs split at the wrap (:meth:`runs`).  Slot ``i`` is
    ``buffer_addr[i]``/``buffer_len[i]`` (the driver's programming),
    ``done[i]`` (the device's "descriptor done" write-back bit) and
    ``packets[i]`` (the packet the device placed, RX, or the driver
    posted, TX).
    """

    def __init__(self, size: int, name: str = ""):
        if size < 2 or size & (size - 1):
            raise ValueError("ring size must be a power of two >= 2")
        self.size = size
        self.name = name
        self._mask = size - 1  # size is a power of two
        self.buffer_addr: List[int] = [0] * size
        self.buffer_len: List[int] = [0] * size
        self.done = bytearray(size)
        self.packets: List[Optional[Packet]] = [None] * size
        self.head = 0  # device-owned consumption point
        self.tail = 0  # software production point
        self._clean = 0  # driver cleanup cursor, trails head
        self.posted = 0
        self.completed = 0

    def runs(self, start: int, count: int) -> Tuple[Tuple[int, int], ...]:
        """The ``count`` slots from ``start`` on, as at most two
        ``(begin, end)`` slice bounds split at the wrap."""
        end = start + count
        if end <= self.size:
            return ((start, end),)
        return ((start, self.size), (0, end - self.size))

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
        self.buffer_addr[index] = buffer_addr
        self.buffer_len[index] = buffer_len
        self.done[index] = 0
        self.packets[index] = packet
        self.tail = (index + 1) & self._mask
        self.posted += 1
        return index

    def reap(self, limit: Optional[int] = None) -> List[Optional[Packet]]:
        """Collect completed descriptors' packets in order (driver
        cleanup path).

        Takes the run of set DD bits from the oldest software-visible
        slot, at most ``limit`` long, up to the first descriptor the
        device has not written back yet; clears the run's bits and
        returns its packets.  The ring keeps its packet references until
        the slots are re-posted.
        """
        size = self.size
        budget = size if limit is None else min(limit, size)
        if budget <= 0:
            return []
        done = self.done
        packets = self.packets
        clean = self._clean
        end = clean + budget
        first = end if end < size else size
        stop = done.find(0, clean, first)
        if stop < 0:
            stop = first
        reaped = packets[clean:stop]
        done[clean:stop] = bytes(stop - clean)
        if stop == size and end > size:
            # The run reaches the wrap: it continues from slot 0.
            stop = done.find(0, 0, end - size)
            if stop < 0:
                stop = end - size
            reaped += packets[:stop]
            done[:stop] = bytes(stop)
        self._clean = stop & self._mask
        return reaped

    def program_buffers(self, base_addr: int, stride: int,
                        buffer_len: int) -> None:
        """Write the fixed slot-to-buffer mapping into every slot.

        Slot ``i`` gets buffer ``base_addr + i * stride`` (``stride``
        non-zero).  Drivers call this once at probe time; afterwards
        :meth:`rearm_until_full` can re-post slots without touching
        their programming.  Covers all ``size`` slots — including the
        one :meth:`post_until_full` leaves reserved on a full fill,
        which otherwise would reach the device unprogrammed once the
        ring rotates.
        """
        size = self.size
        self.buffer_addr[:] = range(base_addr, base_addr + size * stride,
                                    stride)
        self.buffer_len[:] = [buffer_len] * size

    def post_until_full(self, base_addr: int, stride: int,
                        buffer_len: int) -> int:
        """Post empty buffers at tail until the ring is full (RX refill).

        Slot ``i`` gets buffer ``base_addr + i * stride`` — the fixed
        slot-to-buffer mapping RX drivers use — so a refill is a few
        slice writes instead of one :meth:`post` call per slot.
        Returns the number of descriptors posted.
        """
        count = self.free
        for start, stop in self.runs(self.tail, count):
            width = stop - start
            self.buffer_addr[start:stop] = range(
                base_addr + start * stride, base_addr + stop * stride, stride)
            self.buffer_len[start:stop] = [buffer_len] * width
            self.done[start:stop] = bytes(width)
            self.packets[start:stop] = [None] * width
        self.tail = (self.tail + count) & self._mask
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
        count = self.free
        packets = self.packets
        for start, stop in self.runs(self.tail, count):
            packets[start:stop] = [None] * (stop - start)
        self.tail = (self.tail + count) & self._mask
        self.posted += count
        return count

    # ------------------------------------------------------------------
    # device side
    # ------------------------------------------------------------------
    def consume(self, packet: Optional[Packet] = None) -> Optional[int]:
        """Device takes the descriptor at head and completes it; returns
        its slot index, or ``None`` when no descriptor is posted."""
        index = self.head
        if index == self.tail:
            return None
        self.done[index] = 1
        if packet is not None:
            self.packets[index] = packet
        self.head = (index + 1) & self._mask
        self.completed += 1
        return index

    def reset(self) -> None:
        """Device reset: everything returns to software, state cleared."""
        self.head = 0
        self.tail = 0
        self._clean = 0
        self.done[:] = bytes(self.size)
        self.packets[:] = [None] * self.size
