"""Unit tests for the cycle ledger."""

import pytest

from repro.obs.ledger import EXIT_PREFIX, CycleLedger


def test_charge_and_query():
    ledger = CycleLedger()
    ledger.charge("vm0", "exit.apic-access-eoi", 2500.0)
    ledger.charge("vm0", "exit.apic-access-eoi", 2500.0)
    ledger.charge("vm1", "exit.external-interrupt", 1200.0)
    assert ledger.cycles("vm0") == 5000.0
    assert ledger.cycles(category="exit.apic-access-eoi") == 5000.0
    assert ledger.cycles("vm0", "exit.apic-access-eoi") == 5000.0
    assert ledger.count("vm0", "exit.apic-access-eoi") == 2
    assert ledger.total_cycles == 6200.0
    assert ledger.domains() == ["vm0", "vm1"]


def test_charge_with_count():
    ledger = CycleLedger()
    ledger.charge("vm0", "guest.work", 300.0, count=3)
    assert ledger.count("vm0", "guest.work") == 3
    assert ledger.cycles("vm0", "guest.work") == 300.0


def test_negative_cycles_rejected():
    with pytest.raises(ValueError):
        CycleLedger().charge("vm0", "x", -1.0)


def test_by_category_prefix_and_exit_breakdown():
    ledger = CycleLedger()
    ledger.charge("vm0", EXIT_PREFIX + "apic-access-eoi", 100.0)
    ledger.charge("vm1", EXIT_PREFIX + "apic-access-eoi", 50.0)
    ledger.charge("vm0", "guest.work", 999.0)
    by_cat = ledger.by_category(EXIT_PREFIX)
    assert list(by_cat) == [EXIT_PREFIX + "apic-access-eoi"]
    assert by_cat[EXIT_PREFIX + "apic-access-eoi"] == (2, 150.0)
    breakdown = ledger.exit_breakdown()
    assert breakdown == {"apic-access-eoi": (2, 150.0)}


def test_reset():
    ledger = CycleLedger()
    ledger.charge("vm0", "x", 10.0)
    ledger.reset()
    assert ledger.total_cycles == 0.0
    assert ledger.domains() == []


def test_snapshot_shape_and_determinism():
    ledger = CycleLedger()
    ledger.charge("vm1", "b", 2.0)
    ledger.charge("vm0", "a", 1.0)
    snap = ledger.snapshot()
    assert snap["total_cycles"] == 3.0
    assert list(snap["domains"]) == ["vm0", "vm1"]
    assert snap["domains"]["vm0"]["a"] == {"count": 1, "cycles": 1.0}
    # Same charges in a different order snapshot identically.
    other = CycleLedger()
    other.charge("vm0", "a", 1.0)
    other.charge("vm1", "b", 2.0)
    assert other.snapshot() == snap
