"""Unit tests for virtual LAPIC emulation and EOI acceleration costs."""

import pytest

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.sim import Simulator
from repro.vmm import DomainKind, VirtualLapic, VmExitKind, Xen


def make_vlapic(opts=None, costs=None):
    xen = Xen(Simulator(), costs, opts or OptimizationConfig.none())
    domain = xen.create_guest("g")
    return xen.vlapic(domain), domain, xen.ledger, xen.machine, xen.costs


def exits(ledger, kind):
    """``(count, cycles)`` of one exit kind, read from the ledger."""
    return ledger.exit_breakdown().get(kind.value, (0, 0.0))


def test_requires_hvm_domain():
    xen = Xen(Simulator())
    pvm = xen.create_guest("p", DomainKind.PVM)
    with pytest.raises(ValueError):
        VirtualLapic(pvm, xen)


def test_inject_delivers_vector():
    vlapic, domain, _, _, _ = make_vlapic()
    vlapic.inject(0x40)
    assert domain.lapic.isr_contains(0x40)


def test_eoi_unaccelerated_cost():
    vlapic, domain, ledger, machine, costs = make_vlapic()
    core = machine.core(domain.home_core())
    vlapic.inject(0x40)
    xen_before = core.cycles("xen")
    retired = vlapic.eoi_write()
    assert retired == 0x40
    assert exits(ledger, VmExitKind.APIC_ACCESS_EOI)[1] == \
        costs.eoi_emulate_cycles
    assert core.cycles("xen") - xen_before == costs.eoi_emulate_cycles


def test_eoi_accelerated_cost():
    opts = OptimizationConfig(eoi_acceleration=True)
    vlapic, _, ledger, _, costs = make_vlapic(opts)
    vlapic.inject(0x40)
    vlapic.eoi_write()
    assert exits(ledger, VmExitKind.APIC_ACCESS_EOI)[1] == \
        costs.eoi_accelerated_cycles


def test_eoi_accelerated_with_instruction_check():
    opts = OptimizationConfig(eoi_acceleration=True, eoi_instruction_check=True)
    vlapic, _, ledger, _, costs = make_vlapic(opts)
    vlapic.inject(0x40)
    vlapic.eoi_write()
    expected = costs.eoi_accelerated_cycles + costs.eoi_instruction_check_cycles
    assert exits(ledger, VmExitKind.APIC_ACCESS_EOI)[1] == expected


def test_acceleration_saves_the_papers_5900_cycles():
    """8.4K -> 2.5K per EOI (§5.2)."""
    costs = CostModel()
    saving = costs.eoi_emulate_cycles - costs.eoi_accelerated_cycles
    assert saving == pytest.approx(5900)


def test_other_apic_accesses_average_per_interrupt():
    """The 1.13 non-EOI accesses per interrupt accumulate via carry."""
    vlapic, _, ledger, _, costs = make_vlapic()
    for _ in range(100):
        vlapic.inject(0x40)
        vlapic.eoi_write()
    other = exits(ledger, VmExitKind.APIC_ACCESS_OTHER)[0]
    assert other == pytest.approx(113, abs=1)


def test_eoi_share_of_apic_access_exits_near_47_percent():
    """§5.2: 'Among APIC-access VM-exit, 47% of them are EOI write.'
    The share is a count ratio of the ledger's exit cells, not a cycle
    ratio."""
    vlapic, _, ledger, _, _ = make_vlapic()
    for _ in range(1000):
        vlapic.inject(0x40)
        vlapic.eoi_write()
    eoi = exits(ledger, VmExitKind.APIC_ACCESS_EOI)[0]
    other = exits(ledger, VmExitKind.APIC_ACCESS_OTHER)[0]
    assert eoi / (eoi + other) == pytest.approx(0.47, abs=0.01)


def test_pending_lower_priority_dispatched_after_eoi():
    vlapic, domain, _, _, _ = make_vlapic()
    vlapic.inject(0x80)
    vlapic.inject(0x40)  # lower priority: stays in IRR
    assert domain.lapic.isr_contains(0x80)
    assert domain.lapic.irr_contains(0x40)
    vlapic.eoi_write()
    assert domain.lapic.isr_contains(0x40)
