"""Unit tests for domains and accounting."""

import pytest

from repro.hw.cpu import Machine
from repro.sim import Simulator
from repro.vmm import Domain, DomainKind, GuestKernel


def make_machine():
    return Machine(Simulator(), core_count=16, clock_hz=1e9)


def test_hvm_domain_has_lapic():
    machine = make_machine()
    hvm = Domain(1, "hvm", DomainKind.HVM, machine, [8])
    pvm = Domain(2, "pvm", DomainKind.PVM, machine, [9])
    assert hvm.lapic is not None
    assert pvm.lapic is None


#: (is_hvm, is_pvm, is_dom0) for every domain kind.
KIND_FLAGS = {
    DomainKind.DOM0: (False, False, True),
    DomainKind.HVM: (True, False, False),
    DomainKind.PVM: (False, True, False),
    DomainKind.NATIVE: (False, False, False),
}


def test_kind_predicates():
    # The flags are set at creation, for every kind there is.
    assert set(KIND_FLAGS) == set(DomainKind)
    machine = make_machine()
    for kind, flags in KIND_FLAGS.items():
        domain = Domain(1, kind.value, kind, machine, [8])
        assert (domain.is_hvm, domain.is_pvm, domain.is_dom0) == flags, kind


def test_account_labels():
    machine = make_machine()
    assert Domain(0, "d", DomainKind.DOM0, machine, [0]).account_label == "dom0"
    assert Domain(1, "g", DomainKind.HVM, machine, [8]).account_label == "guest"
    assert Domain(2, "p", DomainKind.PVM, machine, [9]).account_label == "guest"
    assert Domain(3, "n", DomainKind.NATIVE, machine, [1]).account_label == "native"


def test_charges_land_on_home_core():
    machine = make_machine()
    guest = Domain(1, "g", DomainKind.HVM, machine, [8])
    guest.charge_guest(1000)
    guest.charge_hypervisor(500)
    assert machine.core(8).cycles("guest") == 1000
    assert machine.core(8).cycles("xen") == 500
    assert machine.core(0).cycles() == 0


def test_multi_vcpu_charging():
    machine = make_machine()
    dom0 = Domain(0, "dom0", DomainKind.DOM0, machine, list(range(8)))
    dom0.charge_guest(100, vcpu=3)
    assert machine.core(3).cycles("dom0") == 100


def test_kernel_msi_masking_flag():
    assert GuestKernel.LINUX_2_6_18.masks_msi_per_interrupt
    assert not GuestKernel.LINUX_2_6_28.masks_msi_per_interrupt


def test_domain_requires_pinning():
    with pytest.raises(ValueError):
        Domain(1, "g", DomainKind.HVM, make_machine(), [])
