"""Property-based tests for descriptor-ring invariants.

The array ring (:class:`repro.hw.DescriptorRing`) keeps slot state in
parallel arrays and reaps, rearms and refills with slice operations.
:class:`ObjectRing` below is the per-slot object ring it replaced,
kept as the reference: every operation walks its slots one by one.
"""

from dataclasses import dataclass
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import DescriptorRing, RingFullError
from repro.net import Packet
from repro.net.mac import MacAddress

SRC = MacAddress(0x020000000001)
DST = MacAddress(0x020000000002)


@dataclass
class Descriptor:
    """One ring slot: a buffer address plus completion status."""

    buffer_addr: int = 0
    buffer_len: int = 0
    #: Device "descriptor done" writeback.
    done: bool = False
    #: The packet the device placed (RX) or the driver posted (TX).
    packet: Optional[Packet] = None


class ObjectRing:
    """The reference ring: one :class:`Descriptor` object per slot."""

    def __init__(self, size: int):
        self.size = size
        self._mask = size - 1
        self.slots = [Descriptor() for _ in range(size)]
        self.head = 0
        self.tail = 0
        self._clean = 0
        self.posted = 0
        self.completed = 0

    @property
    def full(self) -> bool:
        return self.size - 1 - (self.tail - self.head) % self.size == 0

    def post(self, buffer_addr, buffer_len, packet=None) -> int:
        if self.full:
            raise RingFullError("full")
        index = self.tail
        slot = self.slots[index]
        slot.buffer_addr = buffer_addr
        slot.buffer_len = buffer_len
        slot.done = False
        slot.packet = packet
        self.tail = (self.tail + 1) % self.size
        self.posted += 1
        return index

    def reap(self, limit=None) -> List[Descriptor]:
        reaped = []
        budget = self.size if limit is None else limit
        index = self._clean
        while budget > 0:
            slot = self.slots[index]
            if not slot.done:
                break
            reaped.append(slot)
            slot.done = False
            index = (index + 1) & self._mask
            budget -= 1
        self._clean = index
        return reaped

    def program_buffers(self, base_addr, stride, buffer_len) -> None:
        for index, slot in enumerate(self.slots):
            slot.buffer_addr = base_addr + index * stride
            slot.buffer_len = buffer_len

    def post_until_full(self, base_addr, stride, buffer_len) -> int:
        count = self.size - 1 - ((self.tail - self.head) % self.size)
        for _ in range(count):
            slot = self.slots[self.tail]
            slot.buffer_addr = base_addr + self.tail * stride
            slot.buffer_len = buffer_len
            slot.done = False
            slot.packet = None
            self.tail = (self.tail + 1) & self._mask
        self.posted += count
        return count

    def rearm_until_full(self) -> int:
        count = self.size - 1 - ((self.tail - self.head) % self.size)
        for _ in range(count):
            self.slots[self.tail].packet = None
            self.tail = (self.tail + 1) & self._mask
        self.posted += count
        return count

    def consume(self, packet=None) -> Optional[Descriptor]:
        if self.head == self.tail:
            return None
        slot = self.slots[self.head]
        slot.done = True
        if packet is not None:
            slot.packet = packet
        self.head = (self.head + 1) % self.size
        self.completed += 1
        return slot

    def reset(self) -> None:
        self.head = 0
        self.tail = 0
        self._clean = 0
        for slot in self.slots:
            slot.done = False
            slot.packet = None


#: The operation mix: device completions and reaps are drawn most
#: often, and one consume completes a drawn number of slots, so reaped
#: runs straddle slot 0.
_OPS = ("post", "consume", "consume", "consume", "reap", "reap",
        "rearm_until_full", "post_until_full", "program_buffers", "reset")


@st.composite
def ring_scripts(draw):
    """A small ring and an operation script long enough to carry its
    cursors across the wrap several times."""
    size = draw(st.sampled_from([2, 4, 8, 16]))
    addr = st.integers(min_value=0, max_value=1 << 40)
    length = st.integers(min_value=1, max_value=9000)
    stride = st.sampled_from([1, 64, 4096, 8192])
    args = {
        "post": st.tuples(addr, length, st.booleans()),
        "consume": st.tuples(st.booleans(),
                             st.integers(min_value=1, max_value=size)),
        "reap": st.tuples(st.none()
                          | st.integers(min_value=0, max_value=size + 2)),
        "rearm_until_full": st.just(()),
        "post_until_full": st.tuples(addr, stride, length),
        "program_buffers": st.tuples(addr, stride, length),
        "reset": st.just(()),
    }
    op = st.sampled_from(_OPS).flatmap(
        lambda name: args[name].map(lambda drawn: (name,) + drawn))
    script = st.lists(op, min_size=4 * size, max_size=8 * size + 16)
    return size, draw(script)


def _assert_same(ring: DescriptorRing, ref: ObjectRing) -> None:
    assert (ring.head, ring.tail, ring._clean) == (ref.head, ref.tail,
                                                   ref._clean)
    assert (ring.posted, ring.completed) == (ref.posted, ref.completed)
    assert ring.buffer_addr == [slot.buffer_addr for slot in ref.slots]
    assert ring.buffer_len == [slot.buffer_len for slot in ref.slots]
    assert list(ring.done) == [int(slot.done) for slot in ref.slots]
    assert len(ring.packets) == ring.size
    for got, slot in zip(ring.packets, ref.slots):
        assert got is slot.packet


@given(ring_scripts())
@settings(max_examples=200, deadline=None)
def test_array_ring_matches_object_ring(scenario):
    size, script = scenario
    ring = DescriptorRing(size)
    ref = ObjectRing(size)
    for name, *args in script:
        if name == "post":
            addr, length, with_packet = args
            packet = Packet(src=SRC, dst=DST) if with_packet else None
            if ref.full:
                for target in (ring, ref):
                    with pytest.raises(RingFullError):
                        target.post(addr, length, packet)
            else:
                assert ring.post(addr, length, packet) == ref.post(
                    addr, length, packet)
        elif name == "consume":
            with_packet, count = args
            for _ in range(count):
                packet = Packet(src=SRC, dst=DST) if with_packet else None
                slot = ref.consume(packet)
                index = ring.consume(packet)
                if slot is None:
                    assert index is None
                else:
                    assert ref.slots[index] is slot
        elif name == "reap":
            want = [slot.packet for slot in ref.reap(*args)]
            got = ring.reap(*args)
            assert len(got) == len(want)
            for got_packet, want_packet in zip(got, want):
                assert got_packet is want_packet
        else:
            assert getattr(ring, name)(*args) == getattr(ref, name)(*args)
        _assert_same(ring, ref)


@st.composite
def ring_operations(draw):
    """A ring size and a random post/consume/reap operation script."""
    size = draw(st.sampled_from([2, 4, 8, 16, 64]))
    ops = draw(st.lists(st.sampled_from(["post", "consume", "reap"]),
                        min_size=1, max_size=200))
    return size, ops


@given(ring_operations())
@settings(max_examples=200)
def test_ring_invariants_hold_under_any_schedule(scenario):
    size, ops = scenario
    ring = DescriptorRing(size)
    posted = consumed = reaped = 0
    for op in ops:
        if op == "post":
            if ring.full:
                try:
                    ring.post(0x1000, 2048)
                    assert False, "post on full ring must raise"
                except RingFullError:
                    pass
            else:
                ring.post(0x1000 * posted, 2048)
                posted += 1
        elif op == "consume":
            slot = ring.consume()
            if slot is not None:
                consumed += 1
        else:
            reaped += len(ring.reap())
        # Invariants after every step:
        assert 0 <= ring.device_owned <= size - 1
        assert ring.free + ring.device_owned == size - 1
        assert consumed <= posted
        assert reaped <= consumed
    # Conservation: counters match our local bookkeeping.
    assert ring.posted == posted
    assert ring.completed == consumed


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=50)
def test_reap_returns_exactly_what_was_consumed(n):
    ring = DescriptorRing(64)
    total_reaped = 0
    remaining = n
    while remaining > 0:
        batch = min(remaining, 63)
        for i in range(batch):
            ring.post(0x1000 * i, 2048)
        for _ in range(batch):
            ring.consume()
        total_reaped += len(ring.reap())
        remaining -= batch
    assert total_reaped == n
