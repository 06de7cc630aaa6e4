"""End-to-end tests for multi-host cluster scenarios.

The load-bearing guarantee here is *byte-identity*: the serial
in-process mode and the process-per-host mode must produce exactly the
same RunResult dict — same floats, bit for bit — because they share one
cache key.
"""

import json

import pytest

from repro.api import Scenario, run
from repro.audit import InvariantViolation
from repro.cluster import run_cluster
from repro.core.host import Host, HostSpec, derive_host_seed
from repro.net.fabric import ToRSwitch


def _scenario(**overrides):
    fields = dict(
        mode="cluster",
        hosts=[{"name": "h0", "vm_count": 2, "ports": 2},
               {"name": "h1", "vm_count": 2, "ports": 2}],
        flows=[{"src_host": "h0", "dst_host": "h1",
                "src_vm": 0, "dst_vm": 0},
               {"src_host": "h1", "dst_host": "h0",
                "src_vm": 1, "dst_vm": 1}],
        fabric={"latency_s": 2e-5},
        warmup=0.05, duration=0.05)
    fields.update(overrides)
    return Scenario(**fields)


class TestClusterRun:
    def test_cross_host_flows_deliver_their_offered_load(self):
        result = run(_scenario())
        # Two 400 Mbps tenant flows, one per direction.
        assert result.throughput_bps == pytest.approx(800e6, rel=0.05)
        assert result.loss_rate == 0.0
        assert result.vm_count == 4
        cluster = result.extras["cluster"]
        assert sorted(cluster["hosts"]) == ["h0", "h1"]
        assert cluster["fabric"]["forwarded"] > 0
        assert cluster["fabric"]["dropped"] == 0
        assert cluster["sync_windows"] > 0
        # Fabric latency shows up end-to-end: one-way delay alone is
        # 20 us, so the mean must sit above it.
        assert result.latency_mean > 2e-5

    def test_serial_and_process_modes_are_byte_identical(self):
        scenario = _scenario()
        serial = run(scenario)
        parallel = run(scenario, parallel_hosts=True)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))

    def test_congested_fabric_tail_drops_and_reports_loss(self):
        result = run(_scenario(
            fabric={"uplink_gbps": 0.1, "latency_s": 2e-5,
                    "queue_frames": 4}))
        cluster = result.extras["cluster"]
        assert cluster["fabric"]["dropped"] > 0
        assert result.loss_rate > 0.1
        assert result.throughput_bps < 0.2e9

    def test_telemetry_namespaces_metrics_per_host(self):
        result = run(_scenario(), telemetry=True)
        document = result.telemetry.metrics_document(result.duration)
        prefixes = {name.split(".")[1]
                    for name in document["metrics"]
                    if name.startswith("host.")}
        assert prefixes == {"h0", "h1"}
        assert sorted(document["cycles"]) == ["h0", "h1"]

    def test_telemetry_needs_the_in_process_mode(self):
        with pytest.raises(ValueError, match="serial"):
            run(_scenario(), telemetry=True, parallel_hosts=True)

    def test_run_cluster_rejects_single_host_scenarios(self):
        with pytest.raises(ValueError, match="cluster"):
            run_cluster(Scenario(mode="sriov"))

    def test_fabric_violation_names_the_time_the_hosts_ran_to(
            self, monkeypatch):
        # A frame the ToR never accounts for is caught when the
        # coordinator aggregates, at warm-up + duration: the time every
        # host reached, not the measurement window's length.
        reset = ToRSwitch.reset_counters

        def leak_one_frame(tor):
            reset(tor)
            tor.offered += 1

        monkeypatch.setattr(ToRSwitch, "reset_counters", leak_one_frame)
        scenario = _scenario(
            hosts=[{"name": "h0", "vm_count": 1, "ports": 1},
                   {"name": "h1", "vm_count": 1, "ports": 1}],
            flows=[{"src_host": "h0", "dst_host": "h1",
                    "src_vm": 0, "dst_vm": 0}],
            warmup=0.02, duration=0.03)
        with pytest.raises(InvariantViolation) as excinfo:
            run_cluster(scenario)
        assert excinfo.value.check == "fabric-flow"
        assert excinfo.value.sim_time == 0.05


class TestFig22Artifact:
    def test_fig22_is_byte_identical_across_execution_modes(self):
        # The acceptance bar for process-per-host: the cross-host
        # figure's artifact must not depend on how the hosts ran.
        from repro.sweep.figures import FIGURES, figure_artifact
        labeled = FIGURES["fig22"].scenarios(True)
        artifacts = []
        for parallel in (False, True):
            results = {label: run(scenario, parallel_hosts=parallel)
                       for label, scenario in labeled}
            artifacts.append(json.dumps(
                figure_artifact("fig22", results, True),
                sort_keys=True))
        assert artifacts[0] == artifacts[1]


class TestHostIdentity:
    def test_mac_realms_are_disjoint_across_hosts(self):
        hosts = [Host(HostSpec(name=f"h{i}", vm_count=2), i,
                      audit=False) for i in range(2)]
        tables = [set(host.mac_table().values()) for host in hosts]
        assert not tables[0] & tables[1]
        for index, table in enumerate(tables):
            assert {(mac >> 24) & 0xFF for mac in table} == {index + 1}

    def test_realm_zero_stays_reserved_for_single_host_runs(self):
        # Cluster host 0 must not collide with the historical
        # single-host MAC space (realm byte 0).
        host = Host(HostSpec(name="h0", vm_count=1), 0, audit=False)
        assert all((mac >> 24) & 0xFF == 1
                   for mac in host.mac_table().values())

    def test_host_seeds_derive_from_base_and_name(self):
        assert (derive_host_seed(42, "h0")
                == derive_host_seed(42, "h0"))
        assert derive_host_seed(42, "h0") != derive_host_seed(42, "h1")
        assert derive_host_seed(42, "h0") != derive_host_seed(43, "h0")

    def test_host_index_bounded_by_the_realm_byte(self):
        with pytest.raises(ValueError, match="host"):
            Host(HostSpec(name="big", vm_count=1), 0xFF, audit=False)
