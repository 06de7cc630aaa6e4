"""Unit tests for the PV split driver pair."""

import pytest

from repro.core import Testbed, TestbedConfig
from repro.net import Packet
from repro.net.mac import MacAddress
from repro.vmm import DomainKind

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
