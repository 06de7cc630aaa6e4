"""Property-based tests for networking invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices import L2Switch, SwitchTarget
from repro.net import Packet, PacketBuffer, udp_goodput_bps, wire_bytes
from repro.net.mac import MacAddress
from repro.net.packet import packets_per_second, tcp_goodput_bps
from repro.net.tcp import TcpThroughputModel

# Unicast only: multicast destinations flood, by design.
macs = st.integers(min_value=1, max_value=(1 << 48) - 2).map(
    lambda v: MacAddress(v & ~(1 << 40)))


@given(st.integers(min_value=100, max_value=9000))
@settings(max_examples=100)
def test_goodput_strictly_below_line_rate(mtu):
    line = 1e9
    assert 0 < udp_goodput_bps(line, mtu) < line
    assert tcp_goodput_bps(line, mtu) < udp_goodput_bps(line, mtu)


@given(st.floats(min_value=1e6, max_value=1e10, allow_nan=False),
       st.integers(min_value=200, max_value=9000))
@settings(max_examples=100)
def test_pps_throughput_roundtrip(throughput, mtu):
    pps = packets_per_second(throughput, mtu)
    payload = mtu - 28
    assert pps * payload * 8 == pytest.approx(throughput)


@given(st.integers(min_value=1, max_value=9000))
def test_wire_bytes_monotone(size):
    assert wire_bytes(size + 1) == wire_bytes(size) + 1
    assert wire_bytes(size, vlan=5) == wire_bytes(size) + 4


@given(st.floats(min_value=0, max_value=0.1, allow_nan=False),
       st.floats(min_value=0, max_value=0.1, allow_nan=False))
@settings(max_examples=100)
def test_tcp_throughput_monotone_nonincreasing_in_delay(a, b):
    model = TcpThroughputModel()
    low, high = min(a, b), max(a, b)
    assert (model.throughput_bps(1e9, low)
            >= model.throughput_bps(1e9, high))


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=50),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=100)
def test_buffer_conservation(burst_sizes, capacity):
    """enqueued + dropped == offered, and depth never exceeds capacity."""
    src, dst = MacAddress(1), MacAddress(2)
    buffer = PacketBuffer(capacity)
    offered = 0
    for size in burst_sizes:
        burst = [Packet(src=src, dst=dst) for _ in range(size)]
        offered += size
        buffer.push_burst(burst)
        assert len(buffer) <= capacity
        if size and len(buffer) > capacity // 2:
            buffer.pop_burst(capacity // 2)
    stats = buffer.stats
    assert stats.enqueued + stats.dropped == offered
    assert stats.dequeued + len(buffer) == stats.enqueued


@given(st.lists(st.tuples(st.booleans(), st.integers(0, 12)), max_size=30),
       st.integers(min_value=1, max_value=16))
@settings(max_examples=100)
def test_bursts_book_as_single_pushes_and_pops(steps, capacity):
    """``push_burst`` and ``pop_burst`` leave the queue and every
    statistic as ``push`` and ``pop`` one packet at a time would."""
    src = MacAddress(1)
    bursty, single = PacketBuffer(capacity), PacketBuffer(capacity)
    for push, count in steps:
        if push:
            burst = [Packet(src=src, dst=MacAddress(2 + i))
                     for i in range(count)]
            accepted = sum(single.push(packet) for packet in burst)
            assert bursty.push_burst(burst) == accepted
        else:
            popped = [single.pop() for _ in range(min(count, len(single)))]
            assert bursty.pop_burst(count) == popped
        assert list(bursty._queue) == list(single._queue)
        assert bursty.stats == single.stats


@given(st.lists(st.tuples(macs, st.integers(min_value=0, max_value=6)),
                min_size=1, max_size=30, unique_by=lambda t: t[0]))
@settings(max_examples=100)
def test_switch_classification_is_deterministic_and_complete(entries):
    switch = L2Switch()
    for mac, fn in entries:
        switch.program(mac, fn)
    src = MacAddress((1 << 41) | 7)  # unicast source
    for mac, fn in entries:
        [target] = switch.classify(Packet(src=src, dst=mac))
        assert target.function_index == fn
        # Classification is repeatable.
        [again] = switch.classify(Packet(src=src, dst=mac))
        assert again == target
