"""Unit tests for point-to-point links."""

import pytest

from repro.net import Link, Packet
from repro.net.mac import MacAddress
from repro.sim import Simulator

SRC = MacAddress(0x020000000001)
DST = MacAddress(0x020000000002)
GIGABIT = 1e9


def make_link(sim, rate=GIGABIT, **kwargs):
    link = Link(sim, rate_bps=rate, **kwargs)
    received = []
    link.connect(received.append)
    return link, received


def test_packet_arrives_after_serialization_and_propagation():
    sim = Simulator()
    link, received = make_link(sim, propagation_delay=1e-6)
    packet = Packet(src=SRC, dst=DST, size_bytes=1500)
    link.transmit(packet)
    sim.run()
    assert received == [packet]
    assert sim.now == pytest.approx(1538 * 8 / GIGABIT + 1e-6)


def test_back_to_back_frames_serialize_sequentially():
    sim = Simulator()
    link, received = make_link(sim)
    for _ in range(3):
        link.transmit(Packet(src=SRC, dst=DST, size_bytes=1500))
    sim.run()
    assert len(received) == 3
    assert sim.now == pytest.approx(3 * 1538 * 8 / GIGABIT)


def test_queue_overflow_drops():
    sim = Simulator()
    link, received = make_link(sim, queue_frames=2)
    accepted = sum(
        link.transmit(Packet(src=SRC, dst=DST, size_bytes=1500)) for _ in range(10)
    )
    sim.run()
    # 1 in flight + 2 queued = 3 accepted.
    assert accepted == 3
    assert len(received) == 3
    assert link.dropped.value == 7


def test_line_rate_is_hard_cap():
    """Offering 2x line rate for 10 ms must deliver ~line rate only."""
    sim = Simulator()
    link, received = make_link(sim, queue_frames=4)
    interval = 1538 * 8 / GIGABIT / 2  # 2x line rate offering
    t = 0.0
    while t < 0.01:
        sim.schedule_at(t, link.transmit, Packet(src=SRC, dst=DST, size_bytes=1500))
        t += interval
    sim.run(until=0.02)
    delivered_bps = sum(1538 * 8 for _ in received) / 0.01
    assert delivered_bps <= GIGABIT * 1.01
    assert delivered_bps >= GIGABIT * 0.95
    assert link.dropped.value > 0


def test_transmit_without_receiver_raises():
    sim = Simulator()
    link = Link(sim, rate_bps=GIGABIT)
    with pytest.raises(RuntimeError):
        link.transmit(Packet(src=SRC, dst=DST))


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Link(sim, rate_bps=0)
    with pytest.raises(ValueError):
        Link(sim, rate_bps=GIGABIT, queue_frames=-1)
