"""PacketPool: deterministic, per-run packet sequences.

Every testbed owns its own pool, so packet sequence numbers restart at
0 per run and a (scenario, seed) pair replays with identical seqs
within one process, independent of what ran before it.  Without a
pool, packets draw from a module-global sequence that any earlier run
advances.  The pool hands out fresh packets only; nothing is ever
returned to it.
"""

from repro.core.testbed import Testbed
from repro.net.mac import MacAddress
from repro.net.packet import DEFAULT_MTU, Packet, PacketPool, Protocol

SRC = MacAddress(0x02_00_00_00_00_01)
DST = MacAddress(0x02_00_00_00_00_02)


def test_pool_sequences_start_at_zero_and_are_consecutive():
    pool = PacketPool()
    burst = pool.acquire_burst(5, SRC, DST)
    assert [p.seq for p in burst] == [0, 1, 2, 3, 4]
    more = pool.acquire_burst(3, SRC, DST)
    assert [p.seq for p in more] == [5, 6, 7]
    assert pool.next_seq == 8


def test_pools_are_independent_of_each_other_and_the_global_sequence():
    Packet(SRC, DST)  # advances the module-global fallback sequence
    a = PacketPool()
    b = PacketPool()
    assert a.acquire_burst(1, SRC, DST)[0].seq == 0
    assert b.acquire_burst(1, SRC, DST)[0].seq == 0


def test_acquire_burst_initializes_every_field():
    pool = PacketPool()
    [packet] = pool.acquire_burst(
        1, SRC, DST, size_bytes=512, vlan=7,
        protocol=Protocol.TCP, flow_id=3, created_at=1.5)
    assert packet.src is SRC and packet.dst is DST
    assert packet.size_bytes == 512
    assert packet.vlan == 7
    assert packet.protocol is Protocol.TCP
    assert packet.flow_id == 3
    assert packet.created_at == 1.5


def _deliveries_for_one_run():
    """Run a fixed two-VM SR-IOV scenario; record delivered seqs."""
    bed = Testbed()
    records = []
    for index in range(2):
        guest = bed.add_sriov_guest(name=f"vm{index}")
        stream = bed.attach_client_to_sriov(guest, 400e6)
        original = guest.driver.app.deliver

        def deliver(burst, now=0.0, capped=True, _orig=original):
            records.append([p.seq for p in burst])
            return _orig(burst, now, capped)

        guest.driver.app.deliver = deliver
        stream.start()
    bed.sim.run(until=0.02)
    return records


def test_scenario_replays_with_identical_packet_sequences():
    """(scenario, seed) -> identical seq streams within one process.

    This is the determinism the per-testbed pool buys: a second run of
    the same scenario sees exactly the same packet sequence numbers in
    exactly the same delivery batches, no matter what ran before it.
    """
    Packet(SRC, DST)  # perturb the global sequence; pools must not care
    first = _deliveries_for_one_run()
    Packet(SRC, DST)
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
