"""Unit tests for the dom0 device model and MSI mask/unmask costs."""

import pytest

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.sim import Simulator
from repro.vmm import VmExitKind, Xen


def make_dm(opts=None, costs=None):
    xen = Xen(Simulator(), costs, opts or OptimizationConfig.none())
    guest = xen.create_guest("g")
    return xen.device_model(guest), xen.machine, xen.costs, xen.ledger


def exit_count(ledger, kind):
    return ledger.exit_breakdown().get(kind.value, (0, 0.0))[0]


def test_unoptimized_trap_charges_all_three_parties():
    dm, machine, costs, ledger = make_dm()
    core = machine.core(dm.guest.home_core())
    dm.emulate_msix_mask_write(is_mask=True)
    # Xen forward cost on the guest's core.
    assert core.cycles("xen") == costs.xen_msi_forward_cycles
    # dom0 round trip on one of dom0's cores.
    assert machine.cycles("dom0") == costs.dm_msi_roundtrip_cycles
    # Guest-side pollution stall.
    assert core.cycles("guest") == costs.guest_msi_stall_cycles
    assert exit_count(ledger, VmExitKind.MSIX_MASK) == 1


def test_accelerated_trap_stays_in_hypervisor():
    dm, machine, costs, ledger = make_dm(
        OptimizationConfig(msi_acceleration=True))
    dm.emulate_msix_mask_write(is_mask=False)
    assert machine.cycles("dom0") == 0
    assert machine.cycles("guest") == 0
    assert machine.core(dm.guest.home_core()).cycles("xen") == \
        costs.xen_msi_accelerated_cycles
    assert exit_count(ledger, VmExitKind.MSIX_UNMASK) == 1


def test_acceleration_is_a_large_dom0_saving():
    """The §5.1 point: the dom0 component vanishes entirely."""
    costs = CostModel()
    unopt_dom0 = costs.dm_msi_roundtrip_cycles
    assert unopt_dom0 / costs.xen_msi_accelerated_cycles > 10


def test_contention_inflates_dom0_cost():
    """Fig. 6: dom0 grows 17% -> 30% as VMs go 1 -> 7 because each trap
    gets more expensive under device-model contention."""
    dm, machine, costs, _ = make_dm()
    dm.contending_vms = 7
    dm.emulate_msix_mask_write(is_mask=True)
    expected = costs.dm_msi_roundtrip_cycles * (
        1 + costs.dm_msi_contention_per_vm * 6)
    assert machine.cycles("dom0") == pytest.approx(expected)
    assert expected > costs.dm_msi_roundtrip_cycles


def test_housekeeping_budget_is_shared_across_vms():
    """Total device-model housekeeping stays ~flat regardless of VM#."""
    dm, machine, costs, _ = make_dm()
    solo = dm.housekeeping_cycles(elapsed=1.0)
    dm.contending_vms = 7
    shared = dm.housekeeping_cycles(elapsed=1.0)
    assert shared == pytest.approx(solo / 7)
    # The solo budget equals the configured percentage of one core.
    assert solo == pytest.approx(
        costs.dm_housekeeping_percent / 100 * costs.clock_hz)


def test_charge_housekeeping_lands_in_dom0():
    dm, machine, _, _ = make_dm()
    dm.charge_housekeeping(elapsed=1.0)
    assert machine.cycles("dom0") > 0


def test_mask_trap_counter():
    dm, _, _, _ = make_dm()
    dm.emulate_msix_mask_write(True)
    dm.emulate_msix_mask_write(False)
    assert dm.msi_mask_traps == 2
