"""Unit tests for packets and framing arithmetic.

The goodput functions must reproduce the paper's per-port numbers from
first principles: 957 Mbps UDP and ~941 Mbps TCP on a 1 Gbps line.
"""

import pytest

from repro.net import (
    Packet,
    Protocol,
    tcp_goodput_bps,
    udp_goodput_bps,
    wire_bytes,
)
from repro.net.mac import MacAddress
from repro.net.packet import frames_for_message, packets_per_second

SRC = MacAddress.parse("02:00:00:00:00:01")
DST = MacAddress.parse("02:00:00:00:00:02")
GIGABIT = 1e9


def test_udp_goodput_matches_paper_957_mbps():
    goodput = udp_goodput_bps(GIGABIT)
    assert goodput == pytest.approx(957.1e6, rel=1e-3)


def test_tcp_goodput_matches_paper_940_mbps():
    goodput = tcp_goodput_bps(GIGABIT)
    assert goodput == pytest.approx(941.5e6, rel=1e-3)


def test_wire_bytes_adds_38_byte_overhead():
    assert wire_bytes(1500) == 1538


def test_wire_bytes_vlan_tag_adds_four():
    assert wire_bytes(1500, vlan=7) == 1542


def test_packet_payload_udp():
    packet = Packet(src=SRC, dst=DST, size_bytes=1500, protocol=Protocol.UDP)
    assert packet.payload_bytes == 1472


def test_packet_payload_tcp():
    packet = Packet(src=SRC, dst=DST, size_bytes=1500, protocol=Protocol.TCP)
    assert packet.payload_bytes == 1448


def test_packet_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        Packet(src=SRC, dst=DST, size_bytes=0)


def test_frames_for_message_single_frame():
    assert frames_for_message(1000) == 1


def test_frames_for_message_fragments():
    # 4000-byte UDP message: payload/frame = 1472 -> 3 frames.
    assert frames_for_message(4000, protocol=Protocol.UDP) == 3


def test_frames_for_message_rejects_nonpositive():
    with pytest.raises(ValueError):
        frames_for_message(0)


def test_packets_per_second_roundtrip():
    pps = packets_per_second(957.1e6, protocol=Protocol.UDP)
    # 1 Gbps line: 1e9 / (1538 * 8) = 81274 frames/s.
    assert pps == pytest.approx(81274, rel=1e-3)


def test_packets_per_second_rejects_tiny_mtu():
    with pytest.raises(ValueError):
        packets_per_second(1e6, mtu=20)
