"""Integration-style unit tests for the VF driver's interrupt path."""

import pytest

from repro.core import Testbed, TestbedConfig
from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.drivers import FixedItr
from repro.net import Packet
from repro.net.mac import MacAddress
from repro.vmm import DomainKind, GuestKernel, VmExitKind

REMOTE = MacAddress.parse("02:00:00:00:99:99")


def build(opts=None, kind=DomainKind.HVM, kernel=GuestKernel.LINUX_2_6_28,
          policy=None, native=False):
    config = TestbedConfig(ports=1, vfs_per_port=2,
                           opts=opts or OptimizationConfig.all(),
                           native=native)
    bed = Testbed(config)
    guest = bed.add_sriov_guest(kind, kernel, policy or FixedItr(2000))
    return bed, guest


def exit_count(bed, kind):
    return bed.platform.ledger.exit_breakdown().get(kind.value, (0, 0.0))[0]


def exit_cycles(bed, kind):
    return bed.platform.ledger.exit_breakdown().get(kind.value, (0, 0.0))[1]


def rx_burst(bed, guest, count=10):
    burst = [Packet(src=REMOTE, dst=guest.vf.mac) for _ in range(count)]
    guest.port.wire_receive(burst)
    bed.sim.run(until=bed.sim.now + 0.01)


def test_packets_flow_to_application():
    bed, guest = build()
    rx_burst(bed, guest, 10)
    assert guest.app.rx_packets == 10
    assert guest.driver.interrupts_handled >= 1


def test_interrupt_charges_guest_and_xen_only():
    """The SR-IOV promise: no dom0 on the data path (for a 2.6.28 guest
    with MSI acceleration irrelevant)."""
    bed, guest = build()
    bed.platform.start_measurement()
    rx_burst(bed, guest)
    machine = bed.platform.machine
    assert machine.cycles("guest") > 0
    assert machine.cycles("xen") > 0
    assert machine.cycles("dom0") == 0  # housekeeping only at end_measurement


def test_hvm_eoi_exit_recorded():
    bed, guest = build()
    rx_burst(bed, guest)
    assert exit_count(bed, VmExitKind.APIC_ACCESS_EOI) >= 1


def test_pvm_has_no_apic_exits():
    bed, guest = build(kind=DomainKind.PVM)
    rx_burst(bed, guest)
    assert exit_count(bed, VmExitKind.APIC_ACCESS_EOI) == 0
    assert exit_count(bed, VmExitKind.APIC_ACCESS_OTHER) == 0
    assert exit_cycles(bed, VmExitKind.HYPERCALL) > 0
    assert guest.app.rx_packets > 0


def test_linux_2618_masks_msi_per_interrupt():
    bed, guest = build(kernel=GuestKernel.LINUX_2_6_18,
                       opts=OptimizationConfig.none())
    rx_burst(bed, guest)
    interrupts = guest.driver.interrupts_handled
    assert exit_count(bed, VmExitKind.MSIX_MASK) == interrupts
    assert exit_count(bed, VmExitKind.MSIX_UNMASK) == interrupts
    assert bed.platform.machine.cycles("dom0") > 0


def test_linux_2628_never_touches_mask():
    bed, guest = build(kernel=GuestKernel.LINUX_2_6_28,
                       opts=OptimizationConfig.none())
    rx_burst(bed, guest)
    assert exit_count(bed, VmExitKind.MSIX_MASK) == 0


def test_msi_acceleration_removes_dom0_from_path():
    bed, guest = build(kernel=GuestKernel.LINUX_2_6_18,
                       opts=OptimizationConfig(msi_acceleration=True))
    bed.platform.start_measurement()
    rx_burst(bed, guest)
    assert bed.platform.machine.cycles("dom0") == 0


def test_native_mode_charges_nothing_but_guest_work():
    bed, guest = build(native=True)
    rx_burst(bed, guest)
    machine = bed.platform.machine
    assert machine.cycles("native") > 0
    assert machine.cycles("xen") == 0
    assert machine.cycles("dom0") == 0


def test_stop_quiesces_interrupts():
    bed, guest = build()
    rx_burst(bed, guest)
    before = guest.driver.interrupts_handled
    guest.driver.stop()
    burst = [Packet(src=REMOTE, dst=guest.vf.mac) for _ in range(5)]
    guest.port.wire_receive(burst)
    bed.sim.run(until=bed.sim.now + 0.01)
    assert guest.driver.interrupts_handled == before
    assert not guest.vf.enabled


def test_restart_after_stop():
    bed, guest = build()
    guest.driver.stop()
    guest.driver.start()
    rx_burst(bed, guest)
    assert guest.app.rx_packets > 0


def test_mailbox_request_reaches_pf_driver():
    bed, guest = build()
    pf_driver = bed.pf_drivers[0]
    guest.driver.request_vlan(100)
    assert pf_driver.vf_requests[guest.vf.index] == ["set_vlan"]
    # The switch now has a VLAN-scoped entry for the VF.
    hits = guest.port.switch.classify(
        Packet(src=REMOTE, dst=guest.vf.mac, vlan=100))
    assert hits[0].function_index == guest.vf.index


def test_pf_broadcast_reaches_vf_driver():
    bed, guest = build()
    bed.pf_drivers[0].broadcast_event("link_change")
    assert "link_change" in guest.driver.link_events


def test_ring_refilled_after_interrupt():
    bed, guest = build()
    rx_burst(bed, guest, 100)
    assert guest.vf.rx_ring.free <= 1  # fully re-posted (one reserved)


def test_transmit_charges_guest():
    bed, guest = build()
    bed.platform.start_measurement()
    sent = guest.driver.transmit([Packet(src=guest.vf.mac, dst=REMOTE)])
    assert sent == 1
    assert bed.platform.machine.cycles("guest") > 0
