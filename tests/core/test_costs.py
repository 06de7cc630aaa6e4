"""Unit tests for the calibrated cost model."""

from dataclasses import replace

import pytest

from repro.core.costs import CYCLE_FIELDS, CostModel


def test_defaults_validate():
    CostModel().validate()


def test_paper_quoted_constants():
    """The constants the paper states verbatim must not drift."""
    costs = CostModel()
    assert costs.clock_hz == 2.8e9                 # §6.1
    assert costs.core_count == 16                  # §6.1
    assert costs.dom0_vcpus == 8                   # §6.1
    assert costs.eoi_emulate_cycles == 8400        # §5.2
    assert costs.eoi_accelerated_cycles == 2500    # §5.2
    assert costs.eoi_instruction_check_cycles == 1800  # §5.2
    assert costs.aic_ap_bufs == 64                 # §5.3
    assert costs.aic_dd_bufs == 1024               # §5.3
    assert costs.aic_redundancy == 1.2             # §5.3


def test_validation_catches_nonpositive():
    with pytest.raises(ValueError):
        CostModel(clock_hz=0).validate()
    with pytest.raises(ValueError):
        CostModel(guest_cycles_per_packet=-1).validate()
    with pytest.raises(ValueError):
        CostModel(aic_lif_hz=0).validate()


def test_validation_catches_inconsistencies():
    with pytest.raises(ValueError):
        CostModel(dom0_vcpus=20).validate()  # more than core_count
    with pytest.raises(ValueError):
        CostModel(eoi_accelerated_cycles=9000).validate()  # not faster
    with pytest.raises(ValueError):
        CostModel(aic_ap_bufs=0).validate()


def test_aic_bufs_is_min():
    assert CostModel(aic_ap_bufs=10, aic_dd_bufs=1024).aic_bufs == 10
    assert CostModel(aic_ap_bufs=2048, aic_dd_bufs=1024).aic_bufs == 1024


def test_aic_interrupt_hz_floor_and_slope():
    costs = CostModel()
    assert costs.aic_interrupt_hz(0) == costs.aic_lif_hz
    # Above the floor: pps x r / bufs.
    assert costs.aic_interrupt_hz(64000) == pytest.approx(64000 * 1.2 / 64)


def test_validate_returns_self_for_chaining():
    costs = CostModel()
    assert costs.validate() is costs


def test_validation_requires_whole_cycle_costs():
    with pytest.raises(ValueError, match="guest_cycles_per_interrupt"):
        CostModel(guest_cycles_per_interrupt=14000.5).validate()
    for name in CYCLE_FIELDS:
        with pytest.raises(ValueError, match=name):
            replace(CostModel(), **{name: getattr(CostModel(), name) + 0.25}
                    ).validate()
    # Ratios, rates, percentages and periods stay free floats.
    CostModel(aic_redundancy=1.5).validate()
    CostModel(other_apic_accesses_per_interrupt=1.13,
              netback_contention_per_vm=0.0125,
              dm_housekeeping_percent=2.75,
              cpu_copy_bytes_per_cycle=4.25,
              aic_sample_period=0.5).validate()
