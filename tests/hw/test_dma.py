"""Unit tests for descriptor rings."""

import pytest

from repro.hw import DescriptorRing, RingFullError
from repro.net import Packet
from repro.net.mac import MacAddress

SRC = MacAddress(0x020000000001)
DST = MacAddress(0x020000000002)


def test_ring_size_must_be_power_of_two():
    for bad in [0, 1, 3, 100]:
        with pytest.raises(ValueError):
            DescriptorRing(bad)
    DescriptorRing(2)
    DescriptorRing(1024)


def test_post_advances_tail():
    ring = DescriptorRing(8)
    index = ring.post(buffer_addr=0x1000, buffer_len=2048)
    assert index == 0
    assert ring.tail == 1
    assert ring.device_owned == 1


def test_one_slot_always_reserved():
    ring = DescriptorRing(4)
    for i in range(3):
        ring.post(0x1000 * i, 2048)
    assert ring.full
    with pytest.raises(RingFullError):
        ring.post(0x9000, 2048)


def test_device_consume_advances_head_and_sets_done():
    ring = DescriptorRing(8)
    ring.post(0x1000, 2048)
    packet = Packet(src=SRC, dst=DST)
    index = ring.consume(packet)
    assert index == 0
    assert ring.done[index]
    assert ring.packets[index] is packet
    assert ring.head == 1
    assert ring.device_owned == 0


def test_consume_empty_ring_returns_none():
    assert DescriptorRing(8).consume() is None


def test_reap_returns_completed_in_order():
    ring = DescriptorRing(8)
    for i in range(4):
        ring.post(0x1000 * i, 2048)
    packets = [Packet(src=SRC, dst=DST) for _ in range(2)]
    for packet in packets:
        ring.consume(packet)
    reaped = ring.reap()
    assert len(reaped) == 2
    # Slot 0's packet (buffer 0x0) first, then slot 1's (0x1000).
    assert all(got is want for got, want in zip(reaped, packets))
    assert ring.buffer_addr[:2] == [0x0, 0x1000]
    assert not any(ring.done)
    # Second reap finds nothing new.
    assert ring.reap() == []


def test_reap_respects_limit():
    ring = DescriptorRing(8)
    for i in range(5):
        ring.post(0x1000 * i, 2048)
    for _ in range(5):
        ring.consume()
    assert len(ring.reap(limit=2)) == 2
    assert len(ring.reap()) == 3


def test_reap_stops_at_first_incomplete():
    ring = DescriptorRing(8)
    ring.post(0x0, 2048)
    ring.post(0x1000, 2048)
    ring.consume()  # completes only slot 0
    assert len(ring.reap()) == 1


def test_wraparound():
    ring = DescriptorRing(4)
    for round_ in range(5):
        for _ in range(3):
            ring.post(0x1000, 2048)
        for _ in range(3):
            assert ring.consume() is not None
        assert len(ring.reap()) == 3
    assert ring.posted == 15
    assert ring.completed == 15


def test_free_accounting():
    ring = DescriptorRing(8)
    assert ring.free == 7
    ring.post(0x1000, 2048)
    assert ring.free == 6
    ring.consume()
    # Completion does not free the slot until reaped... but in this model
    # free tracks device_owned, so consuming returns it to software.
    assert ring.free == 7


def test_reset_restores_pristine_state():
    ring = DescriptorRing(8)
    for i in range(3):
        ring.post(0x1000 * i, 2048)
    ring.consume()
    ring.reset()
    assert ring.empty
    assert ring.free == 7
    assert ring.reap() == []
