"""Fluid-vs-exact equivalence: the collapsed-window fast path's contract.

``sim_mode="fluid"`` promises *byte-identical* results, not approximate
ones: for every eligible flow the collapse replays the exact engine's
event arithmetic, and for every ineligible flow (or run) it falls back
to the exact path.  These tests pin both halves:

* identical ``RunResult.to_dict()`` payloads across the fig. 15/16
  scenario shapes (HVM, PVM, native; UDP and TCP; randomized seeded
  rates/sizes/frequencies), the fig. 8-10 adaptive-ITR shapes, the
  fig. 13 inter-VM loopback shapes and shared-port multi-stream runs;
* the event identity ``events_executed + collapsed_events ==
  exact.events_executed`` (the collapse skips dispatch, never work);
* exact fallbacks (faults, a 2.6.18 guest, a mid-run rate change, a
  joiner started inside an event at a member's tick instant) that
  decollapse or never attach, with results still identical;
* full collapse, at any ITR window length, of the fig. 15/16 scaling
  points beyond 10 VMs and the 2.6.28 dynamic-ITR shapes;
* shared ports whose streams differ in rate or join mid-run, collapsed
  and still identical (a property over generated joins and cuts);
* the exact mode's own event stream is untouched (the golden digest of
  ``tests/sim/test_determinism.py`` stays the arbiter for that).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Scenario, run
from repro.core.costs import CostModel
from repro.core.experiment import ExperimentRunner
from repro.core.testbed import Testbed, TestbedConfig
from repro.drivers.coalescing import AdaptiveCoalescing, DynamicItr, FixedItr
from repro.vmm.domain import GuestKernel


def _run(scenario: Scenario):
    beds = []
    result = run(scenario, observer=beds.append)
    (bed,) = beds
    return (result.to_dict(), bed.sim.events_executed,
            bed.sim.collapsed_events)


def _assert_equivalent(base: Scenario, expect_collapsed=True):
    """Run ``base`` in both modes and assert byte-identity.

    ``expect_collapsed``: True — the fast path must engage; "all" —
    every event must collapse; False — it must not (exact fallback).
    """
    exact, exact_events, exact_collapsed = _run(base)
    fluid, fluid_events, fluid_collapsed = _run(base.with_(sim_mode="fluid"))
    assert exact_collapsed == 0
    assert fluid == exact  # byte-identical RunResult payloads
    assert fluid_events + fluid_collapsed == exact_events
    if expect_collapsed is True:
        assert fluid_collapsed > 0
    elif expect_collapsed == "all":
        assert fluid_events == 0
    elif expect_collapsed is False:
        assert fluid_collapsed == 0
    return exact, fluid


FIXED_2K = {"kind": "fixed_itr", "hz": 2000}


class TestSteadyStateEquivalence:
    """The fig. 15/16 shapes: results and event counts must match."""

    def test_fig15_shape_hvm(self):
        _assert_equivalent(Scenario(mode="sriov", kind="hvm",
                                    policy=FIXED_2K, vm_count=2,
                                    warmup=0.1, duration=0.1))

    def test_fig16_shape_pvm(self):
        _assert_equivalent(Scenario(mode="sriov", kind="pvm",
                                    policy=FIXED_2K, vm_count=2,
                                    warmup=0.1, duration=0.1))

    def test_native_baseline(self):
        _assert_equivalent(Scenario(mode="native", policy=FIXED_2K,
                                    vm_count=2, warmup=0.1, duration=0.1))

    def test_tcp_stream(self):
        _assert_equivalent(Scenario(mode="sriov", kind="hvm",
                                    policy=FIXED_2K, protocol="tcp",
                                    vm_count=2, warmup=0.1, duration=0.1))

    def test_throughput_anchor_equality(self):
        exact, fluid = _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=2, warmup=0.1, duration=0.1))
        # The throughput anchor is compared by exact float equality,
        # not a tolerance.
        assert fluid["throughput_bps"] == exact["throughput_bps"]
        assert fluid["interrupt_hz"] == exact["interrupt_hz"]
        assert fluid["latency_mean"] == exact["latency_mean"]

    def test_randomized_eligible_configs(self):
        rng = random.Random(0xF1D)
        for _ in range(4):
            scenario = Scenario(
                mode="sriov",
                kind=rng.choice(["hvm", "pvm"]),
                policy={"kind": "fixed_itr",
                        "hz": rng.choice([1000, 2000, 4000])},
                vm_count=rng.randint(1, 3),
                offered_bps=rng.choice([200e6, 450e6, 900e6]),
                seed=rng.randint(0, 2**16),
                warmup=0.05, duration=0.05,
            )
            # No gate depends on the ITR window's length, so every
            # draw must collapse.
            _assert_equivalent(scenario)

    @pytest.mark.parametrize("kind", ["hvm", "pvm"])
    @pytest.mark.parametrize("vm_count", [20, 40, 60])
    def test_fig15_16_scaling_point_collapses_fully(self, kind, vm_count):
        # Beyond 10 VMs several line-share streams share each port.
        _assert_equivalent(
            Scenario(mode="sriov", kind=kind, policy=FIXED_2K,
                     vm_count=vm_count, warmup=0.02, duration=0.02),
            expect_collapsed="all")


class TestExactFallbacks:
    """Ineligible runs must silently take the exact path — identical
    results, zero collapsed events."""

    def test_linux_2618_msi_masking_falls_back(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", kernel="2.6.18",
                     policy=FIXED_2K, vm_count=2, warmup=0.05,
                     duration=0.05),
            expect_collapsed=False)

    def test_faults_fall_back_wholesale(self):
        faulted = Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                           vm_count=2, warmup=0.05, duration=0.05,
                           faults=[{"kind": "link_flap", "at": 0.06,
                                    "port": 0, "duration": 0.005}])
        _assert_equivalent(faulted, expect_collapsed=False)
        # Not silent: every stream names the gate that kept it exact.
        result = run(faulted.with_(sim_mode="fluid"))
        assert result.fluid["rejections"] == {"faults": 2}
        assert result.fluid["collapsed_events"] == 0
        assert result.fluid["flows"] == 0

    def test_faults_gate_on_intervm_loopback(self):
        runner = ExperimentRunner(
            warmup=0.02, duration=0.02, sim_mode="fluid",
            faults=[{"kind": "link_flap", "at": 0.03, "port": 0,
                     "duration": 0.005}])
        result = runner.run_intervm_sriov(offered_bps=2e9)
        assert result.fluid["rejections"] == {"faults": 1}
        assert result.fluid["collapsed_events"] == 0


class TestAdaptiveItrCollapse:
    """Fig. 8-10: AIC flows collapse between ITR sample ticks, and the
    per-sample rate updates replay float-identically."""

    def test_fig08_aic_ladder_rung_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     vm_count=1, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_dynamic_itr_short_interval_collapses(self):
        # The 2.6.28 shape of Figs. 7 and 12: DynamicItr opens at
        # ~111 us, about one burst interval at these rates.
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "dynamic_itr"},
                     vm_count=10, opts={}, warmup=0.02, duration=0.02),
            expect_collapsed="all")

    def test_fig09_aic_tcp_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     protocol="tcp", vm_count=1, ports=1,
                     warmup=0.05, duration=0.05))

    def test_aic_sample_trajectory_is_float_identical(self):
        # Shrink the sample period so several AIC samples land inside
        # the measured window: each sample executes as a real event
        # between collapsed windows, reads counters the replay must
        # already have settled, and reprograms VTEITR through the
        # fluid listener.
        def run_mode(mode):
            beds = []
            runner = ExperimentRunner(
                duration=0.05, warmup=0.005, sim_mode=mode,
                costs=CostModel(aic_sample_period=5e-3),
                observer=beds.append)
            result = runner.run_sriov(vm_count=1, ports=1,
                                      offered_bps_per_vm=900e6,
                                      policy={"kind": "aic"})
            guest = beds[0].sriov_guests[0]
            return result, guest.vf.throttle.interval
        exact, exact_interval = run_mode("exact")
        fluid, fluid_interval = run_mode("fluid")
        assert fluid.to_dict() == exact.to_dict()
        assert fluid_interval == exact_interval  # the AIC trajectory
        assert fluid.fluid["collapsed_events"] > 0
        assert fluid.fluid["events_executed"] > 0  # the samples ran

    def test_short_itr_write_mid_run_stays_collapsed(self):
        # A guest reprogramming VTEITR to a window shorter than a burst
        # interval mid-run: the open window replays under the outgoing
        # interval and the flow stays on the fast path.
        from repro.devices.igb_regs import REG_VTEITR_BASE
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0103)
            guest.vf.regs.write(REG_VTEITR_BASE, 50)  # 50 us interval
            bed.sim.run(until=0.02)
            if mode == "fluid":
                assert all(f.active for f in bed.fluid_flows)
                # Materialize the ring cursors the collapse froze.
                bed.fluid_flows[0].decollapse()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_dynamic_itr_sample_trajectory_is_float_identical(self):
        # DynamicItr samples once a second; shortened here so several
        # samples reprogram VTEITR while the flow is collapsed.
        class FastSampling(DynamicItr):
            sample_period = 5e-3

        def run(mode):
            bed = Testbed(TestbedConfig(ports=1, sim_mode=mode))
            guest = bed.add_sriov_guest(name="vm0", policy=FastSampling())
            stream = bed.attach_client_to_sriov(guest, 400e6)
            stream.start()
            intervals = []
            for step in range(1, 9):
                bed.sim.run(until=step * 5.2e-3)
                intervals.append(guest.vf.throttle.interval)
            if mode == "fluid":
                assert all(f.active for f in bed.fluid_flows)
                assert bed.sim.collapsed_events > 0
                bed.fluid_flows[0].decollapse()
            return intervals, _counters_snapshot(bed, guest, stream)
        exact = run("exact")
        assert len(set(exact[0])) > 1  # the samples moved the window
        assert run("fluid") == exact


class TestSharedPortCollapse:
    """Fig. 13/14 multi-stream shapes: streams sharing one port collapse
    together through the merged-replay group."""

    def test_two_streams_one_port_collapse(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=2, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_three_streams_one_port_collapse(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=3, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_shared_port_slow_streams_collapse(self):
        # A third of the line each: a 2 kHz window spans fewer than
        # three of their burst intervals, and every event collapses.
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                     vm_count=3, ports=1, warmup=0.05, duration=0.05),
            expect_collapsed="all")

    def test_shared_port_aic_collapses(self):
        _assert_equivalent(
            Scenario(mode="sriov", kind="hvm", policy={"kind": "aic"},
                     vm_count=2, ports=1, offered_bps=900e6,
                     warmup=0.05, duration=0.05))

    def test_unequal_burst_intervals_collapse(self):
        # Members merge by (time, virtual seq), so they need not tick
        # on one grid: different rates mean different burst intervals.
        def scenario(mode):
            bed, guests, streams = _port_bed(mode, (900e6, 600e6))
            for stream in streams:
                stream.start()
            bed.sim.run(until=0.02)
            return bed, guests, streams
        _assert_port_identity(scenario)

    def test_joiner_inside_an_event_on_a_member_tick_evicts(self):
        # The exact engine may run the member's tick at 0.0051 on either
        # side of the event that starts the joiner, so the port falls
        # back to exact, and still matches it.
        def scenario(mode):
            bed, guests, streams = _port_bed(mode, (950e6, 950e6))
            streams[0].start()
            bed.sim.schedule_at(0.0051, streams[1].start)
            bed.sim.run(until=0.01)
            return bed, guests, streams
        _assert_port_identity(scenario, evicted=True)

    def test_restart_beside_an_exact_peer_evicts(self):
        # After a rate change the whole port runs exact; a stream that
        # restarts must not collapse beside its still-exact peer.
        def scenario(mode):
            bed, guests, streams = _port_bed(mode, (900e6, 900e6))
            for stream in streams:
                stream.start()
            bed.sim.run(until=0.0053)
            streams[0].set_rate(800e6)
            bed.sim.run(until=0.0071)
            streams[0].stop()
            bed.sim.run(until=0.0093)
            streams[0].start()
            bed.sim.run(until=0.02)
            return bed, guests, streams
        _assert_port_identity(scenario, evicted=True)

    def test_member_that_cannot_begin_evicts_the_port(self):
        # A busy vLAPIC keeps the second stream exact at its start, so
        # the collapsed first stream must leave the fast path with it.
        def scenario(mode):
            bed, guests, streams = _port_bed(mode, (900e6, 900e6))
            streams[0].start()
            bed.sim.run(until=0.005)
            guests[1].domain.lapic.tpr = 0xF0
            streams[1].start()
            bed.sim.run(until=0.02)
            return bed, guests, streams
        _assert_port_identity(scenario, evicted=True)

    def test_group_rate_change_decollapses_whole_port(self):
        def run(mode):
            bed = Testbed(TestbedConfig(ports=1, sim_mode=mode))
            guests = [bed.add_sriov_guest(name=f"vm{i}") for i in range(2)]
            streams = [bed.attach_client_to_sriov(g, 900e6) for g in guests]
            for s in streams:
                s.start()
            if mode == "fluid":
                assert all(f.active for f in bed.fluid_flows)
            bed.sim.run(until=0.0203)
            streams[0].set_rate(250e6)  # one member leaves: all must
            if mode == "fluid":
                assert all(not f.active for f in bed.fluid_flows)
            bed.sim.run(until=0.04)
            bed.settle_fluid()
            return [_counters_snapshot(bed, g, s)
                    for g, s in zip(guests, streams)]
        assert run("fluid") == run("exact")


def _port_bed(sim_mode, rates, aic=False):
    """One port, one guest per rate; streams attached, not started."""
    bed = Testbed(TestbedConfig(ports=1, sim_mode=sim_mode))
    guests = [bed.add_sriov_guest(
        name=f"vm{i}",
        policy=AdaptiveCoalescing() if aic else FixedItr(2000))
        for i in range(len(rates))]
    streams = [bed.attach_client_to_sriov(guest, rate)
               for guest, rate in zip(guests, rates)]
    return bed, guests, streams


def _assert_port_identity(scenario, evicted=False):
    """Run ``scenario(mode) -> (bed, guests, streams)`` in both modes,
    stop every stream and let the throttles drain: every counter must
    match exact, the fluid run must have collapsed, and the port must
    have been evicted exactly when ``evicted`` (None: either way)."""
    snaps = {}
    for mode in ("exact", "fluid"):
        bed, guests, streams = scenario(mode)
        for stream in streams:
            stream.stop()
        bed.sim.run(until=bed.sim.now + 0.005)
        bed.settle_fluid()
        snaps[mode] = [_counters_snapshot(bed, guest, stream)
                       for guest, stream in zip(guests, streams)]
    assert snaps["fluid"] == snaps["exact"]
    assert bed.sim.collapsed_events > 0
    if evicted is not None:
        assert ("port_evicted" in bed.fluid_rejections) == evicted


@st.composite
def _shared_port_runs(draw):
    """2-4 streams on one port, 600-960 Mb/s (both sides of the 100 us
    burst floor), fixed 2 kHz or AIC.  Stream 0 starts at setup; the
    others join on or off its tick grid, between runs or from an event
    scheduled at setup; then one stream is stopped or retargeted."""
    rates = draw(st.lists(st.integers(600, 960), min_size=2, max_size=4))
    aic = draw(st.booleans())
    instant = st.tuples(st.integers(5, 80), st.booleans(), st.booleans())
    joins = draw(st.lists(instant, min_size=len(rates) - 1,
                          max_size=len(rates) - 1))
    cut = draw(st.tuples(st.integers(85, 100), st.booleans(), st.booleans(),
                         st.integers(0, len(rates) - 1),
                         st.sampled_from([None, 300e6, 800e6])))
    return [rate * 1e6 for rate in rates], aic, joins, cut


def _grid_time(interval, ticks, on_grid):
    """Stream 0's ``ticks``-th tick instant (the float sum its
    reschedule chain performs), or a point between two ticks."""
    t = 0.0
    for _ in range(ticks):
        t = t + interval
    return t if on_grid else t + 0.37 * interval


class TestSharedPortProperty:
    """Generated shared-port runs: joins and cuts anywhere, every
    counter equal to exact once the streams have stopped."""

    @settings(max_examples=50, deadline=None)
    @given(_shared_port_runs())
    def test_shared_port_runs_match_exact(self, run):
        rates, aic, joins, cut = run
        cut_ticks, cut_on_grid, cut_in_event, victim, new_rate = cut

        def scenario(mode):
            bed, guests, streams = _port_bed(mode, rates, aic)
            interval = streams[0].burst_interval
            streams[0].start()

            def do_cut():
                if new_rate is None:
                    streams[victim].stop()
                else:
                    streams[victim].set_rate(new_rate)
            cut_at = _grid_time(interval, cut_ticks, cut_on_grid)
            if cut_in_event:
                bed.sim.schedule_at(cut_at, do_cut)
            between = []
            for stream, (ticks, on_grid, in_event) in zip(streams[1:], joins):
                at = _grid_time(interval, ticks, on_grid)
                if in_event:
                    bed.sim.schedule_at(at, stream.start)
                else:
                    between.append((at, stream))
            for at, stream in sorted(between, key=lambda join: join[0]):
                bed.sim.run(until=at)
                stream.start()
            if not cut_in_event:
                bed.sim.run(until=cut_at)
                do_cut()
            bed.sim.run(until=0.016)
            return bed, guests, streams
        # A join evicts the port when it ties a member's virtual event
        # inside an event; whether one does depends on the draw.
        _assert_port_identity(scenario, evicted=None)


def _loopback_bed(sim_mode, sender="guest", offered_bps=5e9, mtu=1500):
    """The run_intervm_sriov wiring, built by hand so tests can poke
    the stream mid-run (fig. 10 when dom0 sends, fig. 13 when a guest
    does)."""
    from repro.net.netperf import NetperfStream
    from repro.net.packet import Protocol
    bed = Testbed(TestbedConfig(ports=1, sim_mode=sim_mode))
    if sender == "guest":
        tx_guest = bed.add_sriov_guest(name="tx")
        transmit = tx_guest.driver.transmit
        src = tx_guest.vf.mac
        sender_domain = tx_guest.domain
        tx_function, tx_driver = tx_guest.vf, tx_guest.driver
    else:
        pf_driver = bed.pf_drivers[0]
        transmit = pf_driver.transmit
        src = bed.ports[0].pf.mac
        sender_domain = pf_driver.dom0
        tx_function, tx_driver = bed.ports[0].pf, pf_driver
    receiver = bed.add_sriov_guest(name="rx")
    stream = NetperfStream(
        bed.sim, transmit, src, receiver.vf.mac, offered_bps,
        Protocol.UDP, mtu=mtu, burst_interval=100e-6, name="intervm",
        pool=bed.packet_pool)
    if sim_mode == "fluid":
        from repro.sim.fluid import FluidLoopbackFlow
        flow = FluidLoopbackFlow(bed, receiver, stream, sender_domain,
                                 tx_function, tx_driver)
        assert flow.try_attach(), bed.fluid_rejections
        bed.fluid_flows.append(flow)
    stream.start()
    if sim_mode == "fluid":
        assert bed.fluid_flows[0].active
    return bed, receiver, stream, tx_function, sender_domain


def _loopback_snapshot(bed, receiver, stream, tx_function, sender_domain):
    snap = _counters_snapshot(bed, receiver, stream)
    snap.update({
        "loopback": receiver.port.internal_loopback_packets,
        "tx_packets": tx_function.tx_packets,
        "tx_bytes": tx_function.tx_bytes,
        "tx_backlog_drops": tx_function.tx_backlog_drops,
        "tx_cycles": sender_domain.cycles_consumed,
        "dma_transfers": receiver.port.datapath.transfers.value,
    })
    return snap


class TestLoopbackCollapse:
    """Inter-VM traffic through the NIC's internal switch collapses:
    sender ticks, per-packet DMA completions and receiver fires merge
    into one virtual clock."""

    def test_fig13_guest_sender_collapses(self):
        for message_bytes in (64, 1500):
            _assert_equivalent(
                Scenario(mode="intervm", variant="sriov", kind="hvm",
                         message_bytes=message_bytes,
                         warmup=0.02, duration=0.02))

    def test_fig10_dom0_sender_collapses(self):
        _assert_equivalent(
            Scenario(mode="intervm", variant="sriov", kind="hvm",
                     sender="dom0", warmup=0.02, duration=0.02))

    def test_intervm_pv_is_ineligible(self):
        _assert_equivalent(
            Scenario(mode="intervm", variant="pv", kind="pvm",
                     warmup=0.02, duration=0.02),
            expect_collapsed=False)

    def test_midrun_rate_change_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, receiver, stream, tx, dom = _loopback_bed(mode)
            bed.sim.run(until=0.0103)
            stream.set_rate(1e9)
            bed.sim.run(until=0.02)
            bed.settle_fluid()
            snaps[mode] = _loopback_snapshot(bed, receiver, stream, tx, dom)
        assert snaps["fluid"] == snaps["exact"]

    def test_midrun_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, receiver, stream, tx, dom = _loopback_bed(mode)
            bed.sim.run(until=0.0151)
            stream.stop()
            bed.sim.run(until=0.03)
            bed.settle_fluid()
            snaps[mode] = _loopback_snapshot(bed, receiver, stream, tx, dom)
        assert snaps["fluid"] == snaps["exact"]

    def test_cut_between_runs_includes_events_at_now(self):
        # run(until=T) executes the sender tick at T (a 100 us grid
        # instant); the decollapse right after must replay it too.
        for until in (0.005, 0.0051):
            for sender in ("guest", "dom0"):
                for cut in ("stop", "set_rate"):
                    snaps = {}
                    for mode in ("exact", "fluid"):
                        bed, receiver, stream, tx, dom = _loopback_bed(
                            mode, sender=sender)
                        bed.sim.run(until=until)
                        if cut == "stop":
                            stream.stop()
                        else:
                            stream.set_rate(1e9)
                        bed.sim.run(until=0.02)
                        bed.settle_fluid()
                        snaps[mode] = _loopback_snapshot(
                            bed, receiver, stream, tx, dom)
                    assert snaps["fluid"] == snaps["exact"], (until, sender,
                                                              cut)

    def test_tx_rate_limit_never_attaches(self):
        from repro.sim.fluid import FluidLoopbackFlow
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        tx_guest = bed.add_sriov_guest(name="tx")
        receiver = bed.add_sriov_guest(name="rx")
        from repro.net.netperf import NetperfStream
        from repro.net.packet import Protocol
        stream = NetperfStream(
            bed.sim, tx_guest.driver.transmit, tx_guest.vf.mac,
            receiver.vf.mac, 5e9, Protocol.UDP, mtu=1500,
            burst_interval=100e-6, name="intervm", pool=bed.packet_pool)
        tx_guest.vf.tx_rate_limit_bps = 1e9
        flow = FluidLoopbackFlow(bed, receiver, stream, tx_guest.domain,
                                 tx_guest.vf, tx_guest.driver)
        assert not flow.try_attach()
        assert bed.fluid_rejections == {"tx_rate_limit": 1}


class TestRejectionDiagnostics:
    """Satellite: every refused try_attach names its gate, per flow,
    and the counts surface in RunResult.fluid and the metrics tree."""

    def test_rejections_name_the_gate(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005,
                                  sim_mode="fluid")
        # A 2.6.18 HVM guest masks MSI-X per interrupt, which the
        # replayed ISR does not model: msi_mask_emulation.
        result = runner.run_sriov(vm_count=1, ports=1,
                                  kernel=GuestKernel.LINUX_2_6_18,
                                  offered_bps_per_vm=300e6,
                                  policy=FIXED_2K)
        assert result.fluid["rejections"] == {"msi_mask_emulation": 1}
        assert result.fluid["collapsed_events"] == 0

    def test_collapsed_run_reports_diagnostics(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005,
                                  sim_mode="fluid")
        result = runner.run_sriov(vm_count=1, ports=1,
                                  offered_bps_per_vm=900e6)
        assert result.fluid["collapsed_events"] > 0
        assert result.fluid["flows"] == 1
        assert result.fluid["rejections"] == {}
        # Diagnostics never enter the canonical payload: byte-equality
        # with exact mode (and cache keys) must not depend on them.
        assert "fluid" not in result.to_dict()

    def test_exact_mode_has_no_diagnostics(self):
        runner = ExperimentRunner(duration=0.02, warmup=0.005)
        result = runner.run_sriov(vm_count=1, ports=1,
                                  offered_bps_per_vm=900e6)
        assert result.fluid is None

    def test_rejection_metric_when_telemetry_on(self):
        bed = Testbed(TestbedConfig(ports=1, sim_mode="fluid",
                                    telemetry=True))
        guest = bed.add_sriov_guest(name="vm0")
        bed.attach_client_to_sriov(guest, 900e6)
        # The live tracer itself makes the flow ineligible (observers
        # must see real events), so the tracer gate fires — and lands
        # in the metrics registry.
        assert bed.fluid_rejections == {"tracer": 1}
        counter = bed.platform.metrics.scope("fluid").counter(
            "rejected.tracer")
        assert counter.value == 1


class TestLapicBusy:
    """A vLAPIC that is not idle breaks the replay's closed
    fire -> ack -> EOI cycle: it refuses collapse at attach, and a
    collapsed flow whose guest raises its TPR leaves the fast path at
    the next settle point."""

    def test_raised_tpr_refuses_at_attach(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed = Testbed(TestbedConfig(ports=1, sim_mode=mode))
            guest = bed.add_sriov_guest(name="vm0")
            # Mask the flow's vector class: injected interrupts stay
            # pending in the IRR instead of being acknowledged.
            guest.domain.lapic.tpr = 0xF0
            stream = bed.attach_client_to_sriov(guest, 900e6)
            stream.start()
            bed.sim.run(until=0.0201)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
            if mode == "fluid":
                assert bed.fluid_rejections == {"lapic_busy": 1}
                assert not bed.fluid_flows
                assert bed.sim.collapsed_events == 0
        assert snaps["fluid"] == snaps["exact"]

    def test_tpr_raised_on_a_collapsed_guest_matches_exact(self,
                                                           monkeypatch):
        # The fig. 15 shape, with every guest raising its TPR halfway
        # through warmup: the warmup settle point finds the vLAPICs
        # busy and decollapses, and the rest of the run is exact.
        measure = ExperimentRunner._measure

        def raise_tpr_midway(runner, bed, apps, drivers):
            def mask():
                for guest in bed.sriov_guests:
                    guest.domain.lapic.tpr = 0xF0
            bed.sim.schedule(runner.warmup / 2, mask)
            return measure(runner, bed, apps, drivers)

        monkeypatch.setattr(ExperimentRunner, "_measure", raise_tpr_midway)
        base = Scenario(mode="sriov", kind="hvm", policy=FIXED_2K,
                        vm_count=2, warmup=0.02, duration=0.03)
        exact, _events, _collapsed = _run(base)
        beds = []
        fluid = run(base.with_(sim_mode="fluid"), observer=beds.append)
        (bed,) = beds
        assert fluid.to_dict() == exact
        # Collapsed until the settle point, exact after it.
        assert 0 < fluid.fluid["collapsed_events"]
        assert not any(flow.active for flow in bed.fluid_flows)
        lapics = [guest.domain.lapic for guest in bed.sriov_guests]
        assert all(lapic.tpr == 0xF0 for lapic in lapics)


def _counters_snapshot(bed, guest, stream):
    """Every externally observable number a flow touches."""
    vf = guest.vf
    driver = guest.driver
    app = guest.app
    ring = vf.rx_ring
    lat = app.latency
    return {
        "sent": stream.sent.value,
        "sent_bytes": stream.sent_bytes.value,
        "wire_rx": guest.port.wire_rx_packets,
        "dma_busy": guest.port.datapath._busy_until,
        "dma_bytes": guest.port.datapath.transferred_bytes.value,
        "rx_offered": vf.rx_offered,
        "rx_packets": vf.rx_packets,
        "rx_bytes": vf.rx_bytes,
        "no_desc": vf.rx_no_desc_drops,
        "posted": ring.posted,
        "completed": ring.completed,
        "head": ring.head,
        "tail": ring.tail,
        "fired": vf.throttle.fired,
        "last_fired": vf.throttle._last_fired,
        "msi_posted": vf.msix.interrupts_posted,
        "interrupts": driver.interrupts_handled,
        "napi_polls": driver.napi.polls,
        "napi_packets": driver.napi.packets,
        "app_rx_packets": app.rx_packets,
        "app_rx_bytes": app.rx_bytes,
        "app_dropped": app.dropped_packets,
        "lat_count": lat._count,
        "lat_sum": lat._sum,
        "cycles": driver.domain.cycles_consumed,
        "events_total": bed.sim.events_executed + bed.sim.collapsed_events,
    }


def _one_guest_bed(sim_mode, rate=900e6):
    # The fluid run must collapse, or the paired runs would be vacuous.
    bed = Testbed(TestbedConfig(ports=1, sim_mode=sim_mode))
    guest = bed.add_sriov_guest(name="vm0")
    stream = bed.attach_client_to_sriov(guest, rate)
    stream.start()
    if sim_mode == "fluid":
        assert bed.fluid_flows and bed.fluid_flows[0].active
    return bed, guest, stream


class TestDecollapse:
    """Leaving the fast path mid-run must leave no observable seam."""

    def test_midrun_rate_change_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0203)
            stream.set_rate(250e6)  # decollapses at an off-window instant
            bed.sim.run(until=0.04)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_midrun_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0151)
            stream.stop()
            # The re-armed throttle fire still drains the ring tail.
            bed.sim.run(until=0.03)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_driver_stop_matches_exact(self):
        snaps = {}
        for mode in ("exact", "fluid"):
            bed, guest, stream = _one_guest_bed(mode)
            bed.sim.run(until=0.0101)
            guest.driver.stop()
            stream.stop()
            bed.sim.run(until=0.02)
            bed.settle_fluid()
            snaps[mode] = _counters_snapshot(bed, guest, stream)
        assert snaps["fluid"] == snaps["exact"]

    def test_second_stream_on_port_joins_the_first(self):
        # A stream started between runs joins the collapsed one: the
        # member replays through now, then the joiner draws its seq.
        def scenario(mode):
            bed = Testbed(TestbedConfig(ports=1, sim_mode=mode))
            first = bed.add_sriov_guest(name="vm0")
            s1 = bed.attach_client_to_sriov(first, 900e6)
            s1.start()
            bed.sim.run(until=0.01)
            second = bed.add_sriov_guest(name="vm1")
            s2 = bed.attach_client_to_sriov(second, 900e6)
            s2.start()
            if mode == "fluid":
                assert all(flow.active for flow in bed.fluid_flows)
            bed.sim.run(until=0.02)
            return bed, [first, second], [s1, s2]
        _assert_port_identity(scenario)

    def test_decollapse_keeps_a_tied_fire_before_its_tick(self):
        # At 950 Mb/s (the 100 us burst floor) the 2 kHz throttle's
        # fires fall on tick instants.  The exact run fires first (the
        # older handle); the handles re-created at decollapse must keep
        # that order.  At 900 Mb/s the ticks miss the ITR grid.
        for k in range(40):
            cut = 0.00503 + k * 0.000137
            snaps = {}
            for mode in ("exact", "fluid"):
                bed, guest, stream = _one_guest_bed(mode, 950e6)
                bed.sim.run(until=cut)
                stream.set_rate(400e6)
                bed.sim.run(until=0.02)
                bed.settle_fluid()
                snaps[mode] = _counters_snapshot(bed, guest, stream)
            assert snaps["fluid"] == snaps["exact"], cut

    def test_cut_between_runs_includes_events_at_now(self):
        # run(until=T) executes every event at T, here a tick instant:
        # settle and decollapse right after it must replay them too.
        for until in (0.005, 0.0051):
            for cut in ("stop", "set_rate", "driver_stop"):
                snaps = {}
                for mode in ("exact", "fluid"):
                    bed, guest, stream = _one_guest_bed(mode, 950e6)
                    bed.sim.run(until=until)
                    if cut == "stop":
                        stream.stop()
                    elif cut == "set_rate":
                        stream.set_rate(400e6)
                    else:
                        guest.driver.stop()
                    bed.sim.run(until=0.02)
                    bed.settle_fluid()
                    snaps[mode] = _counters_snapshot(bed, guest, stream)
                assert snaps["fluid"] == snaps["exact"], (until, cut)

    def test_decollapse_materializes_pending_packets(self):
        bed, guest, stream = _one_guest_bed("fluid")
        bed.sim.run(until=0.0102)  # mid-window: undrained ticks pending
        flow = bed.fluid_flows[0]
        assert flow.active
        flow.decollapse()
        assert not flow.active
        ring = guest.vf.rx_ring
        # The ticks since the last virtual fire replayed as real ring
        # occupancy: undrained packets sit in device-completed slots,
        # exactly where the exact run would have them.
        occupied = sum(1 for packet in ring.packets if packet is not None)
        assert occupied > 0
        assert occupied == sum(ring.done)
        # Bookkeeping stayed consistent: completions count only what
        # the device actually wrote back so far.
        assert ring.completed == guest.vf.rx_packets


class TestEligibilityGates:
    def test_jittered_stream_never_attaches(self):
        from repro.sim.fluid import FluidFlow
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        guest = bed.add_sriov_guest(name="vm0")
        stream = bed.attach_client_to_sriov(guest, 900e6)
        stream.jitter = 0.2
        assert not FluidFlow(bed, guest, stream).try_attach()
        stream.jitter = 0.0
        assert FluidFlow(bed, guest, stream).try_attach()

    def test_exact_mode_never_builds_flows(self):
        bed = Testbed(TestbedConfig(ports=1, sim_mode="exact"))
        guest = bed.add_sriov_guest(name="vm0")
        bed.attach_client_to_sriov(guest, 900e6).start()
        assert not bed.fluid_flows


def test_golden_exact_digest_is_unchanged():
    """The exact mode's event stream is the repo's determinism anchor;
    the fluid mode must not have perturbed it (same constant as
    tests/sim/test_determinism.py)."""
    from tests.sim.test_determinism import (GOLDEN_DIGEST,
                                            _run_fixed_scenario)
    assert _run_fixed_scenario() == GOLDEN_DIGEST
