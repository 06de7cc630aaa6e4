"""Unit tests for the hypervisor: domain lifecycle and MSI routing."""

import pytest

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.hw.msi import MsiMessage
from repro.sim import Simulator
from repro.vmm import DomainKind, GuestKernel, NativeHost, VmExitKind, Xen


def make_xen(**kwargs):
    return Xen(Simulator(), **kwargs)


class TestDomainLifecycle:
    def test_dom0_exists_with_pinned_vcpus(self):
        xen = make_xen()
        assert xen.dom0.is_dom0
        assert [v.core_index for v in xen.dom0.vcpus] == list(range(8))

    def test_guests_pin_to_remaining_threads_round_robin(self):
        xen = make_xen()
        guests = [xen.create_guest(f"g{i}") for i in range(10)]
        cores = [g.home_core() for g in guests]
        assert cores[:8] == list(range(8, 16))
        assert cores[8:] == [8, 9]  # wraps around

    def test_hvm_guest_gets_vlapic_and_device_model(self):
        xen = make_xen()
        hvm = xen.create_guest("hvm", DomainKind.HVM)
        assert xen.vlapic(hvm) is not None
        assert xen.device_model(hvm) is not None
        assert xen.hvm_guest_count == 1

    def test_pvm_guest_has_neither(self):
        xen = make_xen()
        pvm = xen.create_guest("pvm", DomainKind.PVM)
        with pytest.raises(KeyError):
            xen.vlapic(pvm)
        assert xen.hvm_guest_count == 0

    def test_cannot_create_second_dom0(self):
        with pytest.raises(ValueError):
            make_xen().create_guest("evil", DomainKind.DOM0)

    def test_destroy_guest_updates_contention(self):
        xen = make_xen()
        a = xen.create_guest("a")
        b = xen.create_guest("b")
        assert xen.device_model(a).contending_vms == 2
        xen.destroy_guest(b)
        assert xen.device_model(a).contending_vms == 1
        assert not b.running


class TestMsiRouting:
    def deliver_to(self, xen, domain):
        received = []
        vector = xen.bind_guest_msi(domain, received.append)
        xen.deliver_msi(None, MsiMessage(0xFEE00000, vector))
        return vector, received

    def test_hvm_delivery_runs_isr_and_charges_exit(self):
        xen = make_xen()
        guest = xen.create_guest("g", DomainKind.HVM)
        vector, received = self.deliver_to(xen, guest)
        assert received == [vector]
        exits = xen.ledger.exit_breakdown()
        assert exits[VmExitKind.EXTERNAL_INTERRUPT.value][0] == 1
        assert guest.lapic.isr_contains(vector)

    def test_pvm_delivery_uses_event_channel_cost(self):
        xen = make_xen()
        guest = xen.create_guest("g", DomainKind.PVM)
        _, received = self.deliver_to(xen, guest)
        assert len(received) == 1
        # Event-channel notify recorded as hypercall-class work.
        assert xen.ledger.exit_breakdown()[VmExitKind.HYPERCALL.value][1] \
            == xen.costs.event_channel_notify_cycles

    def test_vector_for_destroyed_domain_dropped(self):
        xen = make_xen()
        guest = xen.create_guest("g")
        received = []
        vector = xen.bind_guest_msi(guest, received.append)
        xen.destroy_guest(guest)
        xen.deliver_msi(None, MsiMessage(0xFEE00000, vector))
        assert received == []

    def test_vectors_globally_unique_across_guests(self):
        xen = make_xen()
        vectors = [
            xen.bind_guest_msi(xen.create_guest(f"g{i}"), lambda v: None)
            for i in range(10)
        ]
        assert len(set(vectors)) == 10

    def test_unbind_frees_vector(self):
        xen = make_xen()
        guest = xen.create_guest("g")
        received = []
        vector = xen.bind_guest_msi(guest, received.append)
        xen.unbind_guest_msi(vector)
        xen.deliver_msi(None, MsiMessage(0xFEE00000, vector))
        assert received == []


class TestMeasurement:
    def test_measurement_window(self):
        sim = Simulator()
        xen = Xen(sim)
        guest = xen.create_guest("g")
        sim.run(until=1.0)
        xen.start_measurement()
        guest.charge_guest(2.8e9)  # one full core-second
        sim.run(until=2.0)
        elapsed = xen.end_measurement()
        assert elapsed == pytest.approx(1.0)
        breakdown = xen.utilization_breakdown()
        assert breakdown["guest"] == pytest.approx(100.0)
        # Device-model housekeeping landed in dom0 at end_measurement.
        assert breakdown["dom0"] > 0

    def test_custom_costs_and_opts(self):
        costs = CostModel(core_count=4, dom0_vcpus=2)
        xen = Xen(Simulator(), costs=costs,
                  opts=OptimizationConfig.all())
        assert len(xen.machine.cores) == 4
        assert xen.opts.eoi_acceleration


class TestNativeHost:
    def test_native_delivery_has_no_virtualization_cost(self):
        host = NativeHost(Simulator())
        context = host.create_guest("vf0")
        received = []
        vector = host.bind_guest_msi(context, received.append)
        host.deliver_msi(None, MsiMessage(0xFEE00000, vector))
        assert received == [vector]
        assert host.machine.cycles() == 0

    def test_native_contexts_label(self):
        host = NativeHost(Simulator())
        context = host.create_guest("vf0")
        context.charge_guest(100)
        assert host.machine.cycles("native") == 100
        assert host.is_native
