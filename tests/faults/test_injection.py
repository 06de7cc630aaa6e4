"""End-to-end fault injection through the Scenario API.

The ISSUE-3 acceptance scenario lives here: a DNIS migration with an
injected VF link flap must complete with recorded failovers and live
fault counters, and the same scenario with no faults must not even
build an injector.
"""

import hashlib
import json

import pytest

from repro.api import Scenario, run
from repro.core.testbed import Testbed, TestbedConfig
from repro.faults import FaultInjector, FaultPlan
from repro.sim.rand import RandomStreams

FLAP = {"kind": "link_flap", "at": 0.2, "duration": 0.3, "port": 0}


def _small_sriov(**kw):
    return Scenario(mode="sriov", vm_count=2, ports=2,
                    warmup=0.2, duration=0.1, **kw)


class TestMigrationUnderLinkFlap:
    @pytest.fixture(scope="class")
    def flap_result(self):
        return run(Scenario(mode="migrate", variant="dnis", start_at=0.5,
                            faults=[FLAP]), telemetry=True)

    def test_run_completes_with_failovers(self, flap_result):
        failovers = flap_result.extras["migration"]["failovers"]
        assert len(failovers) >= 1
        # The flap itself: away from the VF at exactly t=0.2...
        assert [0.2, "vf0", None] in failovers
        # ...degrading to the PV standby rather than crashing...
        assert [0.2, None, "eth0"] in failovers
        # ...and back to the preferred VF when carrier returns.
        assert [0.5, "eth0", "vf0"] in failovers

    def test_fault_counters_in_extras(self, flap_result):
        counters = flap_result.extras["faults"]
        assert counters["injected"] == 1
        assert counters["link_flaps"] == 1

    def test_fault_gauges_in_metrics_document(self, flap_result):
        doc = flap_result.telemetry.metrics_document(0.0)
        assert doc["metrics"]["faults.link_flaps"]["value"] == 1
        assert doc["metrics"]["faults.injected"]["value"] == 1

    def test_migration_still_reports_a_timeline(self, flap_result):
        assert flap_result.extras["migration"]["downtime"] > 0
        assert flap_result.extras["timeline"]["series"]["rx_bytes"]["times"]


class TestMailboxLossUnderFlap:
    def test_lost_doorbells_are_retried(self):
        # The flap at t=0.21 makes the PF broadcast link_change over
        # every VF mailbox while the loss window [0.2, 0.22) is armed:
        # the doorbells drop, the PF-side retrier re-rings them past
        # the window's end, and the run completes.
        result = run(Scenario(
            mode="migrate", variant="dnis", start_at=0.5,
            faults=[{"kind": "link_flap", "at": 0.21, "duration": 0.1,
                     "port": 0},
                    {"kind": "mailbox_loss", "at": 0.2, "duration": 0.02,
                     "port": 0}]))
        counters = result.extras["faults"]
        assert counters["mailbox_doorbells_dropped"] >= 1
        assert counters["mailbox_retries"] >= 1
        assert counters["mailbox_abandoned"] == 0
        assert result.extras["migration"]["downtime"] > 0


class TestDmaAndInterruptFaults:
    @pytest.fixture(scope="class")
    def faulted(self):
        return run(_small_sriov(faults=[
            {"kind": "dma_corruption", "at": 0.05, "count": 3, "port": 0},
            {"kind": "interrupt_delay", "at": 0.1, "duration": 0.05,
             "delay": 50e-6},
        ]))

    def test_corrupted_frames_are_dropped_and_counted(self, faulted):
        counters = faulted.extras["faults"]
        assert counters["dma_corrupted"] == 3
        assert counters["injected"] == 2

    def test_delayed_interrupts_are_counted(self, faulted):
        assert faulted.extras["faults"]["interrupts_delayed"] > 0

    def test_faulted_run_is_deterministic(self, faulted):
        again = run(_small_sriov(faults=[
            {"kind": "dma_corruption", "at": 0.05, "count": 3, "port": 0},
            {"kind": "interrupt_delay", "at": 0.1, "duration": 0.05,
             "delay": 50e-6},
        ]))
        assert again.to_dict() == faulted.to_dict()


#: sha256 of ``RunResult.to_dict()`` (sorted JSON) for one
#: ``dma_corruption`` fault on port 0 of the small SR-IOV shape, keyed
#: by (at, count).  Pinned from the per-packet corruption loop the
#: batched receive path replaced: the budget drops the leading frames
#: of a burst, and the rest take the ordinary path.
CORRUPTION_DIGESTS = {
    (0.05, 3):
        "0c9a3640d7f63ce2a2d014fa7baa8a073dad088ee6fa13eea1aaba6d48659be7",
    (0.05, 40):
        "3d3d7ef1e8fb22748ac39ac819f296fffdebdb898364e5b6a84177c30a385382",
    (0.05, 500):
        "60f2a0c478d5c88fa1db3c38247051ddf353b150c4643acb4dbb06ce43b173b6",
    (0.2501, 3):
        "aad9aa5a08651cbe276941496a2fdda38773ec940bd35a3fa7647334ca9e3452",
    (0.2501, 40):
        "d4b66bc1c1e972862426e072d07b36d393a4216aab99c19263de02556d7dc87d",
    (0.2501, 500):
        "c320b53821e256e50d637528d6e06c802a1a8009a3d1890bc837b5d3e0cc07c1",
}


class TestCorruptionResultsPinned:
    @pytest.mark.parametrize("at,count", sorted(CORRUPTION_DIGESTS))
    def test_corrupted_run_matches_pinned_digest(self, at, count):
        result = run(_small_sriov(faults=[
            {"kind": "dma_corruption", "at": at, "count": count,
             "port": 0}]))
        assert result.extras["faults"]["dma_corrupted"] == count
        payload = json.dumps(result.to_dict(), sort_keys=True)
        assert (hashlib.sha256(payload.encode()).hexdigest()
                == CORRUPTION_DIGESTS[(at, count)])


class TestFaultFreeRuns:
    def test_no_faults_means_no_injector_and_no_extras_key(self):
        result = run(_small_sriov())
        assert "faults" not in result.extras

    def test_degrade_factor_slows_the_migration(self):
        base = run(Scenario(mode="migrate", variant="pv", start_at=0.5))
        slow = run(Scenario(mode="migrate", variant="pv", start_at=0.5,
                            faults=[{"kind": "migration_degrade",
                                     "factor": 4.0}]))
        assert (slow.extras["migration"]["downtime"]
                > base.extras["migration"]["downtime"])
        assert slow.extras["faults"]["migration_link_factor"] == 4.0


class TestInjectorWiring:
    def test_double_install_rejected(self):
        bed = Testbed(TestbedConfig(ports=1, vfs_per_port=1))
        injector = FaultInjector(
            FaultPlan.from_specs([{"kind": "link_flap", "at": 0.1}]),
            RandomStreams(1).fork("faults"))
        injector.install(bed)
        with pytest.raises(RuntimeError, match="already installed"):
            injector.install(bed)

    def test_port_out_of_range_fails_at_build_time(self):
        with pytest.raises(ValueError, match="port 5"):
            Testbed(TestbedConfig(
                ports=1, vfs_per_port=1,
                faults=[{"kind": "link_flap", "at": 0.1, "port": 5}]))

    def test_vf_out_of_range_fails_at_build_time(self):
        with pytest.raises(ValueError, match="VF 9"):
            Testbed(TestbedConfig(
                ports=1, vfs_per_port=1,
                faults=[{"kind": "mailbox_loss", "at": 0.1, "vf": 9}]))
