"""Cluster fluid mode: the collapsed datapath across the ToR fabric.

``sim_mode="fluid"`` in cluster mode keeps the single-host contract —
byte-identical results or an exact fallback, never approximation — but
the collapse now spans the lockstep protocol: TX ticks, uplink
serialization, staged egress records and fabric arrivals all replay as
flat arithmetic inside each host's window.  Two run shapes are
deliberately *not* part of the identity check:

* per-host ``events_executed`` (the whole point is fewer events), and
* the coordinator's ``sync_windows`` (collapsed hosts transmit ahead
  to a certified horizon and fires are invisible to their frontier, so
  windows are far wider — pure synchronization, not results).

Everything else in the RunResult dict must match bit for bit, and the
event identity ``events_executed + collapsed_events == exact
events_executed`` must hold exactly.
"""

import json

import pytest

from repro.api import Scenario, run
from repro.cluster.process import ProcessHost
from repro.cluster.runner import ClusterCoordinator, InProcessHost
from repro.core.costs import CostModel
from repro.core.host import HostSpec
from repro.net.fabric import FabricSpec, ToRSwitch


def _scenario(sim_mode="exact", **overrides):
    fields = dict(
        mode="cluster",
        hosts=[{"name": "a", "vm_count": 1, "ports": 1},
               {"name": "b", "vm_count": 1, "ports": 1}],
        flows=[{"src_host": "a", "dst_host": "b", "offered_bps": 400e6},
               {"src_host": "b", "dst_host": "a", "offered_bps": 400e6}],
        fabric={"uplink_gbps": 10.0, "latency_s": 2e-5},
        warmup=0.05, duration=0.05, sim_mode=sim_mode)
    fields.update(overrides)
    return Scenario(**fields)


def _normalize(result) -> str:
    payload = result.to_dict()
    for host in payload["extras"]["cluster"]["hosts"].values():
        host.pop("events_executed", None)
    payload["extras"]["cluster"].pop("sync_windows", None)
    return json.dumps(payload, sort_keys=True)


def _total_events(result) -> int:
    hosts = result.extras["cluster"]["hosts"]
    return sum(host["events_executed"] for host in hosts.values())


def _assert_equivalent(expect_collapsed=True, **overrides):
    exact = run(_scenario("exact", **overrides))
    fluid = run(_scenario("fluid", **overrides))
    assert exact.fluid is None
    assert fluid.fluid is not None
    assert _normalize(fluid) == _normalize(exact)
    assert (fluid.fluid["events_executed"]
            + fluid.fluid["collapsed_events"]) == _total_events(exact)
    if expect_collapsed:
        assert fluid.fluid["collapsed_events"] > 0
    else:
        assert fluid.fluid["collapsed_events"] == 0
    return exact, fluid


class TestClusterFluidEquivalence:
    """Fig. 22 shapes: cross-host flows collapse, results match."""

    def test_fig22_bidirectional_collapses_every_event(self):
        _, fluid = _assert_equivalent()
        # Steady bidirectional UDP: both hosts collapse wholesale.
        assert fluid.fluid["flows"] == 2
        assert fluid.fluid["rejections"] == {}
        assert fluid.fluid["events_executed"] == 0

    def test_unidirectional_receiver_host_stays_exact(self):
        # Host b runs no stream of its own, so it has nothing to
        # collapse; its ingress executes exactly while a collapses.
        _, fluid = _assert_equivalent(
            flows=[{"src_host": "a", "dst_host": "b",
                    "offered_bps": 700e6}])
        assert fluid.fluid["flows"] == 1
        assert fluid.fluid["events_executed"] > 0

    def test_near_line_rate_exercises_uplink_queue(self):
        # 950 Mbps into a serialized uplink: the Link queue depth and
        # tail-drop arithmetic must replay identically.
        _assert_equivalent(
            flows=[{"src_host": "a", "dst_host": "b",
                    "offered_bps": 950e6},
                   {"src_host": "b", "dst_host": "a",
                    "offered_bps": 950e6}])

    def test_tcp_flows_collapse(self):
        _assert_equivalent(
            flows=[{"src_host": "a", "dst_host": "b",
                    "offered_bps": 600e6, "protocol": "tcp"},
                   {"src_host": "b", "dst_host": "a",
                    "offered_bps": 600e6, "protocol": "tcp"}])

    def test_oversubscribed_tor_tail_drops_match(self):
        # Two senders converge on one receiver over a 1 Gbps fabric:
        # ToR forwarding, queueing and drops are coordinator-side and
        # must see byte-identical egress streams from collapsed hosts.
        exact, fluid = _assert_equivalent(
            hosts=[{"name": "a", "vm_count": 1, "ports": 1},
                   {"name": "b", "vm_count": 1, "ports": 1},
                   {"name": "c", "vm_count": 1, "ports": 1}],
            flows=[{"src_host": "a", "dst_host": "c",
                    "offered_bps": 900e6},
                   {"src_host": "b", "dst_host": "c",
                    "offered_bps": 900e6}],
            fabric={"uplink_gbps": 1.0, "latency_s": 2e-5,
                    "queue_frames": 64})
        assert exact.extras["cluster"]["fabric"]["dropped"] > 0
        assert fluid.loss_rate == exact.loss_rate


class TestClusterFluidFallbacks:
    def test_shared_port_host_falls_back_wholesale(self):
        # Two VMs on one port share an uplink; per-flow collapse of a
        # shared Link serializer is not modeled, so the whole host
        # stays exact — and still matches byte for byte.
        _, fluid = _assert_equivalent(
            expect_collapsed=True,
            hosts=[{"name": "a", "vm_count": 2, "ports": 1},
                   {"name": "b", "vm_count": 2, "ports": 2}],
            flows=[{"src_host": "a", "dst_host": "b",
                    "src_vm": 0, "dst_vm": 0, "offered_bps": 300e6},
                   {"src_host": "a", "dst_host": "b",
                    "src_vm": 1, "dst_vm": 1, "offered_bps": 200e6},
                   {"src_host": "b", "dst_host": "a",
                    "src_vm": 0, "dst_vm": 0, "offered_bps": 250e6},
                   {"src_host": "b", "dst_host": "a",
                    "src_vm": 1, "dst_vm": 1, "offered_bps": 350e6}])
        assert fluid.fluid["rejections"] == {"port_shared": 2}
        # Host b (one VM per port) still collapses both of its streams.
        assert fluid.fluid["flows"] == 2

    def test_exact_mode_carries_no_fluid_sidecar(self):
        result = run(_scenario("exact"))
        assert result.fluid is None
        for host in result.extras["cluster"]["hosts"].values():
            assert "events_collapsed" not in host
            assert "fluid_rejections" not in host

    def test_extras_keep_the_exact_schema(self):
        # Fluid diagnostics ride the sidecar, never the cluster extras:
        # cached exact results must stay comparable key-for-key.
        exact = run(_scenario("exact"))
        fluid = run(_scenario("fluid"))
        for name, host in fluid.extras["cluster"]["hosts"].items():
            assert set(host) == set(exact.extras["cluster"]["hosts"][name])


class TestClusterFluidProcessMode:
    def test_serial_and_process_fluid_runs_are_byte_identical(self):
        scenario = _scenario("fluid")
        serial = run(scenario)
        parallel = run(scenario, parallel_hosts=True)
        assert (json.dumps(serial.to_dict(), sort_keys=True)
                == json.dumps(parallel.to_dict(), sort_keys=True))
        assert parallel.fluid == serial.fluid


# ----------------------------------------------------------------------
# Fault injection mid-window (driven below the Scenario API: cluster
# scenarios reject ``faults=``, so the test arms the reset directly on
# a host simulator and drives the coordinator by hand).
# ----------------------------------------------------------------------

_FAULT_WARMUP = 0.05
_FAULT_DURATION = 0.1
_FAULT_AT = 0.08  # mid-measurement, far from any window boundary


def _drive_cluster(sim_mode, fault_at=None):
    """run_cluster's core loop, with an optional device reset armed on
    host a's guest before the clock starts."""
    specs = [HostSpec.from_dict(h, i) for i, h in enumerate(
        [{"name": "a", "vm_count": 1, "ports": 1},
         {"name": "b", "vm_count": 1, "ports": 1}])]
    fabric = FabricSpec.from_dict(
        {"uplink_gbps": 10.0, "latency_s": 2e-5})
    costs = CostModel().validate()
    runners = [InProcessHost(spec, i, costs=costs, base_seed=7,
                             audit=True, telemetry=False,
                             sim_mode=sim_mode)
               for i, spec in enumerate(specs)]
    tor = ToRSwitch(fabric, len(runners))
    tables = [runner.mac_table() for runner in runners]
    for index, table in enumerate(tables):
        for mac in table.values():
            tor.learn(mac, index)
    for src, dst in ((0, 1), (1, 0)):
        runners[src].configure_flows([{
            "src_vm": 0, "dst_mac": tables[dst][0],
            "offered_bps": 400e6, "message_bytes": 1500,
            "protocol": "udp", "flow_id": src + 1}])
    target = runners[0].host.bed.sriov_guests[0].driver
    if fault_at is not None:
        runners[0].host.sim.schedule_at(
            fault_at, lambda: target._handle_device_reset(
                {"duration": 0.004}))
    coordinator = ClusterCoordinator(runners, tor, fabric.latency_s)
    coordinator.run(_FAULT_WARMUP)
    tor.reset_counters()
    for runner in runners:
        runner.start_measurement()
    coordinator.run(_FAULT_WARMUP + _FAULT_DURATION)
    results = {spec.name: runner.collect()
               for spec, runner in zip(specs, runners)}
    return results, runners, target


def _normalize_hosts(results) -> str:
    payload = {}
    for name, host in results.items():
        host = dict(host)
        host.pop("events_executed", None)
        host.pop("events_collapsed", None)
        host.pop("fluid_flows", None)
        host.pop("fluid_rejections", None)
        payload[name] = host
    return json.dumps(payload, sort_keys=True)


class TestClusterFaultMidWindow:
    def test_device_reset_decollapses_and_stays_byte_identical(self):
        exact, _, exact_driver = _drive_cluster("exact",
                                                fault_at=_FAULT_AT)
        fluid, runners, fluid_driver = _drive_cluster("fluid",
                                                      fault_at=_FAULT_AT)
        assert exact_driver.resets_handled == 1
        assert fluid_driver.resets_handled == 1
        assert _normalize_hosts(fluid) == _normalize_hosts(exact)
        # The reset evicted host a's flow: collapse ran up to the
        # fault, everything after executed exactly.
        host_a = fluid["a"]
        assert host_a["fluid_rejections"].get("host_evicted", 0) >= 1
        assert host_a["events_collapsed"] > 0
        assert host_a["events_executed"] > 0
        assert all(not flow.active
                   for flow in runners[0].host.bed.fluid_flows)
        # Host b was untouched and stayed collapsed throughout.
        assert fluid["b"]["fluid_rejections"] == {}
        # The event identity holds per host even across the eviction.
        for name in exact:
            assert (fluid[name]["events_executed"]
                    + fluid[name]["events_collapsed"]
                    ) == exact[name]["events_executed"]

    def test_faultless_hand_driven_loop_matches_scenario_path(self):
        # Sanity for the harness itself: without the fault, the
        # hand-driven loop reproduces the Scenario-path identity.
        exact, _, _ = _drive_cluster("exact")
        fluid, _, _ = _drive_cluster("fluid")
        assert _normalize_hosts(fluid) == _normalize_hosts(exact)
        assert fluid["a"]["events_executed"] == 0
        assert fluid["a"]["events_collapsed"] > 0


# ----------------------------------------------------------------------
# The transmit horizon: collapsed hosts replay their wire side ahead of
# the window as far as the DMA backlog bound certifies, hand the egress
# out early, and lockstep windows widen to that horizon.
# ----------------------------------------------------------------------

_INCAST = dict(
    hosts=[{"name": "a", "vm_count": 1, "ports": 1},
           {"name": "b", "vm_count": 1, "ports": 1},
           {"name": "c", "vm_count": 1, "ports": 1}],
    flows=[{"src_host": "a", "dst_host": "c", "offered_bps": 400e6},
           {"src_host": "c", "dst_host": "a", "offered_bps": 400e6},
           {"src_host": "b", "dst_host": "c", "offered_bps": 300e6}])


def _spy(monkeypatch, cls, name, record):
    """Wrap ``cls.name`` so each call appends ``record(self)`` after it."""
    original = getattr(cls, name)
    seen = []

    def wrapper(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        seen.append(record(self))
        return result

    monkeypatch.setattr(cls, name, wrapper)
    return seen


class TestTransmitHorizon:
    def test_fig22_shape_runs_in_under_a_thousand_windows(self):
        # The benchmark's cluster_fluid shape: a ~1 ms certified horizon
        # per round instead of one 20 us fabric latency (34,388 rounds).
        result = run(_scenario(
            "fluid",
            flows=[{"src_host": "a", "dst_host": "b",
                    "offered_bps": 900e6},
                   {"src_host": "b", "dst_host": "a",
                    "offered_bps": 900e6}],
            warmup=0.3, duration=0.5, seed=42))
        assert result.fluid["events_executed"] == 0
        assert result.extras["cluster"]["sync_windows"] < 1000

    def test_exact_windows_are_untouched(self):
        # Exact hosts report their next event as the frontier, so the
        # exact run keeps its window count (2,573 for this shape).
        result = run(_scenario("exact"))
        assert result.extras["cluster"]["sync_windows"] == 2573

    def test_fast_fabric_certifies_no_tick_ahead(self, monkeypatch):
        # At 1 Tb/s the fabric could refill the DMA pipe's 2 ms of
        # backlog headroom in ~11 us — less than one burst interval — so
        # the bound certifies no tick and windows stay narrow.
        from repro.sim.fluid_host import FluidHostFlow
        ahead = _spy(monkeypatch, FluidHostFlow, "run_ahead",
                     lambda flow: len(flow._ticks))
        fast = {"uplink_gbps": 1000.0, "latency_s": 2e-5}
        _, fluid = _assert_equivalent(fabric=fast)
        assert ahead and max(ahead) == 0
        ahead.clear()
        wide = run(_scenario("fluid"))
        assert max(ahead) > 0
        assert (fluid.extras["cluster"]["sync_windows"]
                > 2 * wide.extras["cluster"]["sync_windows"])

    def test_incast_eviction_inside_the_horizon(self, monkeypatch):
        # b's first frame is a second inbound shape for c: c leaves the
        # fast path with egress already handed out ahead of its clock.
        # Those frames become promises the exact engine must reproduce
        # one for one (Host._egress raises on any difference), so
        # nothing is sent twice or lost.
        from repro.core.host import Host
        promised = _spy(monkeypatch, Host, "_evict_fluid",
                        lambda host: (host.spec.name, len(host._promised)))
        routed = []
        route = ToRSwitch.route

        def recording_route(tor, batch):
            shape, times, seqs, created = batch[:4]
            routed.extend((shape[0], t, seq, c)
                          for t, seq, c in zip(times, seqs, created))
            return route(tor, batch)

        monkeypatch.setattr(ToRSwitch, "route", recording_route)
        exact, fluid = _assert_equivalent(**_INCAST)
        assert promised and promised[0][0] == "c" and promised[0][1] > 0
        # Every frame any host sent, warm-up included, reached the ToR
        # exactly once, with the exact run's time, sequence number and
        # send time.
        half = len(routed) // 2
        assert len(routed) == 2 * half
        assert sorted(routed[half:]) == sorted(routed[:half])
        assert fluid.fluid["rejections"] == {"host_evicted": 1}
        assert fluid.loss_rate == exact.loss_rate
        monkeypatch.undo()
        parallel = run(_scenario("fluid", **_INCAST), parallel_hosts=True)
        assert (json.dumps(parallel.to_dict(), sort_keys=True)
                == json.dumps(fluid.to_dict(), sort_keys=True))

    def test_contradicted_bound_raises(self):
        # A DMA booking the bound did not account for (here forged onto
        # host a's pipe) makes a certified tick's drop check fire: the
        # merged replay refuses to diverge from the egress it handed out.
        from repro.core.host import HorizonError
        specs = [HostSpec.from_dict(h, i) for i, h in enumerate(
            [{"name": "a", "vm_count": 1, "ports": 1},
             {"name": "b", "vm_count": 1, "ports": 1}])]
        fabric = FabricSpec.from_dict({"uplink_gbps": 10.0,
                                       "latency_s": 2e-5})
        runners = [InProcessHost(spec, i, costs=CostModel().validate(),
                                 base_seed=7, audit=False, telemetry=False,
                                 sim_mode="fluid")
                   for i, spec in enumerate(specs)]
        tor = ToRSwitch(fabric, 2)
        tables = [runner.mac_table() for runner in runners]
        for index, table in enumerate(tables):
            for mac in table.values():
                tor.learn(mac, index)
        for src, dst in ((0, 1), (1, 0)):
            runners[src].configure_flows([{
                "src_vm": 0, "dst_mac": tables[dst][0],
                "offered_bps": 400e6, "message_bytes": 1500,
                "protocol": "udp", "flow_id": src + 1}])
        host = runners[0].host
        flow = host.bed.fluid_flows[0]
        run_ahead = host._run_ahead
        forged = []

        def forge_after_run_ahead(until, rx_bps):
            collapsed = run_ahead(until, rx_bps)
            if not forged and host.sim.now > 0.005 and flow._ticks:
                flow.port.datapath._busy_until += 1.0
                forged.append(host.sim.now)
            return collapsed

        host._run_ahead = forge_after_run_ahead
        coordinator = ClusterCoordinator(runners, tor, fabric.latency_s)
        with pytest.raises(HorizonError, match="certified"):
            coordinator.run(0.02)
        assert forged
