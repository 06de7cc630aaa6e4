"""PacketPool: one header per burst, counted per run.

A burst's packets differ in nothing the simulation reads, so
``acquire_burst`` builds one immutable header and returns that many
references to it.  Every testbed owns its own pool, whose ``acquired``
counts the packets of that run alone.  A (scenario, seed) pair replays
the same delivered packets within one process, whatever ran before it.
"""

from itertools import groupby

from repro.core.testbed import Testbed
from repro.net.mac import MacAddress
from repro.net.packet import DEFAULT_MTU, Packet, PacketPool, Protocol

SRC = MacAddress(0x02_00_00_00_00_01)
DST = MacAddress(0x02_00_00_00_00_02)


def test_pool_sequences_start_at_zero_and_are_consecutive():
    """A fresh pool has handed out nothing; each burst advances its count
    by exactly the burst's packets, with no gap and no overlap."""
    pool = PacketPool()
    assert pool.acquired == 0
    burst = pool.acquire_burst(5, SRC, DST)
    assert len(burst) == 5
    assert pool.acquired == 5
    more = pool.acquire_burst(3, SRC, DST)
    assert len(more) == 3
    assert pool.acquired == 8


def test_acquired_counts_packets_across_bursts_and_pools_are_independent():
    a = PacketPool()
    b = PacketPool()
    first = a.acquire_burst(5, SRC, DST)
    second = a.acquire_burst(3, SRC, DST)
    b.acquire_burst(1, SRC, DST)
    assert a.acquired == 8
    assert b.acquired == 1
    assert first[0] is not second[0]  # one header per burst, not per pool


def test_acquire_burst_initializes_every_field():
    pool = PacketPool()
    burst = pool.acquire_burst(
        4, SRC, DST, size_bytes=512, vlan=7,
        protocol=Protocol.TCP, flow_id=3, created_at=1.5)
    assert len(burst) == 4
    packet = burst[0]
    assert all(other is packet for other in burst)
    assert packet.src is SRC and packet.dst is DST
    assert packet.size_bytes == 512
    assert packet.vlan == 7
    assert packet.protocol is Protocol.TCP
    assert packet.flow_id == 3
    assert packet.created_at == 1.5


def _deliveries_for_one_run():
    """Run a fixed two-VM SR-IOV scenario; record each delivered batch
    as runs of one header: (send time, size, packets)."""
    bed = Testbed()
    records = []
    for index in range(2):
        guest = bed.add_sriov_guest(name=f"vm{index}")
        stream = bed.attach_client_to_sriov(guest, 400e6)
        original = guest.driver.app.deliver

        def deliver(burst, now=0.0, capped=True, _orig=original):
            records.append([(header.created_at, header.size_bytes,
                             len(list(run)))
                            for header, run in groupby(burst)])
            return _orig(burst, now, capped)

        guest.driver.app.deliver = deliver
        stream.start()
    bed.sim.run(until=0.02)
    return records


def test_scenario_replays_with_identical_packet_sequences():
    """(scenario, seed) -> the same delivered packets within one process.

    A second run of the same scenario delivers exactly the same runs of
    packets in exactly the same batches, no matter what ran before it.
    """
    first = _deliveries_for_one_run()
    second = _deliveries_for_one_run()
    assert first, "scenario delivered no packets"
    assert first == second


def test_default_mtu_burst_matches_loose_packets():
    pool = PacketPool()
    pooled = pool.acquire_burst(2, SRC, DST)
    loose = [Packet(SRC, DST, DEFAULT_MTU) for _ in range(2)]
    for a, b in zip(pooled, loose):
        assert a.size_bytes == b.size_bytes
        assert a.protocol is b.protocol
        assert a.vlan == b.vlan
