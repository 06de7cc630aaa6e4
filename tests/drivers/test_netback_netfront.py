"""Unit tests for the PV split driver pair."""

import pytest

from repro.core import Testbed, TestbedConfig
from repro.core.costs import CostModel
from repro.net import Packet
from repro.net.mac import MacAddress
from repro.vmm import DomainKind
from repro.vmm.grant_table import GrantTable

SRC = MacAddress(0x020000000001)
DST = MacAddress(0x020000000002)


def build(vm_count=1, kind=DomainKind.HVM, single_thread=False):
    bed = Testbed(TestbedConfig(ports=1))
    if single_thread:
        bed.use_single_thread_netback()
    guests = [bed.add_pv_guest(kind) for _ in range(vm_count)]
    return bed, guests


def burst(n):
    return [Packet(src=SRC, dst=DST) for _ in range(n)]


def test_packets_copied_to_guest():
    bed, [guest] = build()
    bed.netback.deliver(guest.netfront, burst(10))
    bed.sim.run()
    assert guest.app.rx_packets == 10
    assert bed.netback.delivered_packets == 10


def test_copy_charges_dom0():
    bed, [guest] = build()
    bed.platform.start_measurement()
    bed.netback.deliver(guest.netfront, burst(10))
    bed.sim.run()
    expected = 10 * bed.netback.cycles_per_packet(guest.domain)
    assert bed.platform.machine.cycles("dom0") == pytest.approx(expected)


def test_hvm_costs_more_than_pvm():
    bed, [hvm] = build(kind=DomainKind.HVM)
    bed2, [pvm] = build(kind=DomainKind.PVM)
    assert (bed.netback.cycles_per_packet(hvm.domain)
            > bed2.netback.cycles_per_packet(pvm.domain))


def test_contention_inflates_beyond_ten_guests():
    bed, guests = build(vm_count=12)
    cost_12 = bed.netback.cycles_per_packet(guests[0].domain)
    bed2, guests2 = build(vm_count=10)
    cost_10 = bed2.netback.cycles_per_packet(guests2[0].domain)
    assert cost_12 > cost_10


def test_grant_copies_counted():
    bed, [guest] = build()
    bed.netback.deliver(guest.netfront, burst(5))
    bed.sim.run()
    assert guest.netfront.grant_table.copies == 5
    assert guest.netfront.grant_table.copied_bytes == 5 * 1500
    # No grant outlives the burst's copy.
    assert guest.netfront.grant_table.active_grants() == 0


def test_saturated_single_thread_drops():
    bed, [guest] = build(single_thread=True)
    assert len(bed.netback.executors) == 1
    # Offer far more than one core can copy within the queue bound.
    for _ in range(2000):
        bed.netback.deliver(guest.netfront, burst(20))
    bed.sim.run(until=0.1)
    assert bed.netback.dropped_bursts > 0
    assert bed.netback.dropped_packets > 0


def test_capacity_estimate():
    bed, [guest] = build(kind=DomainKind.PVM)
    capacity = bed.netback.capacity_pps(guest.domain)
    threads = len(bed.netback.executors)
    assert capacity == pytest.approx(
        threads * 2.8e9 / bed.netback.cycles_per_packet(guest.domain))


def test_unconnected_frontend_rejected():
    bed, [guest] = build()
    bed.netback.disconnect(guest.netfront)
    with pytest.raises(RuntimeError):
        bed.netback.deliver(guest.netfront, burst(1))


def test_double_connect_rejected():
    bed, [guest] = build()
    with pytest.raises(ValueError):
        bed.netback.connect(guest.netfront)


def test_carrier_off_discards_silently():
    bed, [guest] = build()
    guest.netfront.set_carrier(False)
    bed.netback.deliver(guest.netfront, burst(5))
    bed.sim.run()
    assert guest.app.rx_packets == 0


def test_event_channel_notified_per_burst():
    bed, [guest] = build()
    bed.netback.deliver(guest.netfront, burst(5))
    bed.sim.run()
    assert guest.netfront.notifications == 1


def test_netfront_charges_guest_cycles():
    bed, [guest] = build(kind=DomainKind.PVM)
    bed.platform.start_measurement()
    bed.netback.deliver(guest.netfront, burst(10))
    bed.sim.run()
    costs = bed.platform.costs
    expected_guest = (costs.guest_cycles_per_interrupt
                      + 10 * (costs.netfront_cycles_per_packet
                              + costs.pvm_syscall_surcharge_per_packet))
    assert bed.platform.machine.cycles("guest") == pytest.approx(expected_guest)


def test_copy_cost_follows_the_frontend_count():
    # Netback prices a frontend's copy when frontends connect or
    # disconnect; every burst must be charged at the current count's
    # contention factor, past the 10-VM baseline and back below it.
    bed, guests = build(vm_count=13)
    guests.append(bed.add_pv_guest(DomainKind.PVM))
    netback = bed.netback
    packets = burst(7)

    def charged(guest):
        bed.platform.start_measurement()
        netback.deliver(guest.netfront, packets)
        cycles = bed.platform.machine.cycles("dom0")
        bed.sim.run()
        return cycles

    def expected(guest):
        return netback.cycles_per_packet(guest.domain) * len(packets)

    assert netback.frontend_count == 14
    crowded = [charged(guest) for guest in (guests[0], guests[-1])]
    assert crowded == [expected(guests[0]), expected(guests[-1])]
    for guest in guests[9:13]:
        netback.disconnect(guest.netfront)
    assert netback.frontend_count == 10
    relieved = [charged(guest) for guest in (guests[0], guests[-1])]
    assert relieved == [expected(guests[0]), expected(guests[-1])]
    assert relieved[0] < crowded[0] and relieved[1] < crowded[1]


def _copy_books(bed, guest):
    table = guest.netfront.grant_table
    return (table._next_ref, table.copies, table.copied_bytes,
            bed.netback.delivered_packets)


def _per_packet_books(bursts):
    """The books a copy of each burst's per-packet size list leaves."""
    table = GrantTable(0)
    for packets in bursts:
        table.copy_burst(0, [packet.size_bytes for packet in packets])
    return (table._next_ref, table.copies, table.copied_bytes,
            sum(map(len, bursts)))


@pytest.mark.parametrize("shape", ["one header", "equal fields",
                                   "first recurs"])
def test_copy_books_match_the_per_packet_size_list(shape):
    # A one-header burst books its sizes as one run; a burst of
    # distinct headers, or one whose first header recurs after another
    # (A A B A), takes the per-packet list.  Either way the table must
    # read as the per-packet list left it.
    bed, [guest] = build()
    head = Packet(src=SRC, dst=DST, size_bytes=700)
    other = Packet(src=SRC, dst=DST, size_bytes=1500)
    first = {"one header": [head] * 8,
             "equal fields": [Packet(src=SRC, dst=DST, size_bytes=700)
                              for _ in range(8)],
             "first recurs": [head, head, other, head]}[shape]
    bursts = [first, [head], [other] * 3]
    for packets in bursts:
        assert bed.netback.deliver(guest.netfront, packets)
    bed.sim.run()
    assert _copy_books(bed, guest) == _per_packet_books(bursts)
    assert guest.app.rx_packets == sum(map(len, bursts))


def test_burst_refused_at_a_full_queue_books_nothing():
    bed, [guest] = build()
    netback = bed.netback
    head = Packet(src=SRC, dst=DST)
    # One burst in service and a full queue behind it.
    fill = netback.executors[0].queue_limit + 1
    assert all(netback.deliver(guest.netfront, [head] * 4)
               for _ in range(fill))
    assert not netback.deliver(guest.netfront,
                               [Packet(src=SRC, dst=DST, size_bytes=100)] * 9)
    bed.sim.run()
    assert _copy_books(bed, guest) == _per_packet_books([[head] * 4] * fill)
    assert guest.app.rx_packets == 4 * fill
    assert (netback.dropped_bursts, netback.dropped_packets) == (1, 9)


def test_frontends_resolve_their_thread_and_current_price():
    # Three threads, frontends connected and disconnected in turn: each
    # connected frontend rides thread ``frontend_id % 3`` at the price
    # of the current frontend count, and a burst is charged there.
    bed = Testbed(TestbedConfig(ports=1, costs=CostModel(netback_threads=3)))
    guests = [bed.add_pv_guest(DomainKind.HVM if k % 2 else DomainKind.PVM)
              for k in range(13)]
    netback = bed.netback
    head = Packet(src=SRC, dst=DST)

    def check():
        for guest in guests:
            netfront = guest.netfront
            if netfront.backend is None:
                continue
            price, thread, executor, *_ = netback._frontends[netfront]
            assert thread == netfront.frontend_id % 3
            assert executor is netback.executors[thread]
            assert price == netback.cycles_per_packet(netfront.domain)
            bed.platform.start_measurement()
            netback.deliver(netfront, [head] * 5)
            assert executor.core.cycles("dom0") == price * 5
            bed.sim.run()

    check()
    crowded = netback._frontends[guests[0].netfront][0]
    for guest in guests[3:8]:
        netback.disconnect(guest.netfront)
        check()
    assert netback._frontends[guests[0].netfront][0] < crowded
    for guest in guests[3:6]:
        netback.connect(guest.netfront)
        check()
    assert netback.frontend_count == 11
