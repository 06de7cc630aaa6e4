"""Unit tests for the ToR fabric model (spec + switch arithmetic)."""

import pytest

from repro.net.fabric import (
    DEFAULT_LATENCY_S,
    DEFAULT_QUEUE_FRAMES,
    DEFAULT_UPLINK_GBPS,
    FabricSpec,
    ToRSwitch,
)
from repro.net.mac import VLAN_NONE
from repro.net.packet import wire_bytes


def _batch(t=0.0, dst=0x02_0100_000001, size=1500, vlan=VLAN_NONE,
           count=None):
    """A one-record batch from host 0, sent at ``t``; ``count`` adds the
    frame-count column."""
    shape = (0, 0x02_0100_000000, dst, size, vlan, "udp", 1)
    batch = (shape, [t], [0], [t])
    return batch if count is None else batch + ([count],)


def _arrival(routed):
    return routed[2][0]


def _count(routed):
    return routed[4][0]


class TestFabricSpec:
    def test_defaults(self):
        spec = FabricSpec()
        assert spec.uplink_gbps == DEFAULT_UPLINK_GBPS
        assert spec.latency_s == DEFAULT_LATENCY_S
        assert spec.queue_frames == DEFAULT_QUEUE_FRAMES
        assert spec.rate_bps == DEFAULT_UPLINK_GBPS * 1e9

    def test_round_trip(self):
        spec = FabricSpec(uplink_gbps=25.0, latency_s=1e-5,
                          queue_frames=64)
        assert FabricSpec.from_dict(spec.to_dict()) == spec
        assert FabricSpec.from_dict(None) == FabricSpec()
        assert FabricSpec.from_dict({}) == FabricSpec()

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="latency_ms"):
            FabricSpec.from_dict({"latency_ms": 1.0})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError, match="uplink_gbps"):
            FabricSpec(uplink_gbps=0)
        with pytest.raises(ValueError, match="lookahead"):
            FabricSpec(latency_s=0)
        with pytest.raises(ValueError, match="queue_frames"):
            FabricSpec(queue_frames=0)


class TestToRSwitch:
    def test_forwarding_adds_latency_plus_serialization(self):
        spec = FabricSpec(uplink_gbps=10.0, latency_s=5e-6)
        tor = ToRSwitch(spec, host_count=2)
        tor.learn(0x02_0100_000001, 1)
        routed = tor.route(_batch(t=1.0))
        assert routed[0] == 1
        assert _arrival(routed) == pytest.approx(
            1.0 + 5e-6 + wire_bytes(1500) * 8 / 10e9)
        assert tor.counters() == {"offered": 1, "forwarded": 1,
                                  "forwarded_bytes": wire_bytes(1500),
                                  "dropped": 0, "unknown_dst": 0}

    def test_egress_port_serializes_in_call_order(self):
        tor = ToRSwitch(FabricSpec(), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        first = tor.route(_batch(t=0.0))
        second = tor.route(_batch(t=0.0))
        # Same instant, same destination: the second frame queues
        # behind the first on the egress port.
        assert _arrival(second) == pytest.approx(
            _arrival(first) + wire_bytes(1500) * 8 / FabricSpec().rate_bps)

    def test_unknown_destination_is_dropped_and_counted(self):
        tor = ToRSwitch(FabricSpec(), host_count=2)
        assert tor.route(_batch(dst=0x02_0900_00BEEF)) is None
        assert tor.counters()["unknown_dst"] == 1
        assert tor.counters()["forwarded"] == 0

    def test_overbooked_egress_queue_tail_drops(self):
        tor = ToRSwitch(FabricSpec(queue_frames=2), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        outcomes = [tor.route(_batch(t=0.0)) for _ in range(8)]
        delivered = [m for m in outcomes if m is not None]
        assert 0 < len(delivered) < 8
        assert tor.counters()["dropped"] == 8 - len(delivered)

    def test_reset_counters_keeps_port_bookings(self):
        tor = ToRSwitch(FabricSpec(), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        first = tor.route(_batch(t=0.0))
        tor.reset_counters()
        assert tor.counters()["forwarded"] == 0
        # The egress booking survives: the next frame still queues.
        second = tor.route(_batch(t=0.0))
        assert _arrival(second) > _arrival(first)

    def test_learn_rejects_out_of_range_host(self):
        tor = ToRSwitch(FabricSpec(), host_count=2)
        with pytest.raises(ValueError, match="out of range"):
            tor.learn(0x02_0100_000001, 2)


class TestBurstTailDrop:
    """A routed record may carry ``count`` equal frames; the queue bound
    applies per frame, so a burst straddling it keeps its prefix."""

    def test_burst_straddling_the_bound_keeps_the_fitting_prefix(self):
        spec = FabricSpec(queue_frames=4)
        tor = ToRSwitch(spec, host_count=2)
        tor.learn(0x02_0100_000001, 1)
        routed = tor.route(_batch(t=0.0, count=16))
        # An empty queue fits queue_frames + the frame that starts
        # serializing immediately; the tail is dropped, not the burst.
        assert routed is not None
        assert _count(routed) == 5
        assert tor.counters()["forwarded"] == 5
        assert tor.counters()["dropped"] == 11
        assert tor.counters()["offered"] == 16

    def test_burst_fitting_entirely_is_untouched(self):
        tor = ToRSwitch(FabricSpec(queue_frames=256), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        routed = tor.route(_batch(t=0.0, count=8))
        assert _count(routed) == 8
        assert tor.counters()["forwarded"] == 8
        assert tor.counters()["dropped"] == 0

    def test_burst_arrival_is_when_its_last_frame_clears(self):
        spec = FabricSpec()
        tor = ToRSwitch(spec, host_count=2)
        tor.learn(0x02_0100_000001, 1)
        routed = tor.route(_batch(t=0.0, count=3))
        assert _arrival(routed) == pytest.approx(
            spec.latency_s + 3 * wire_bytes(1500) * 8 / spec.rate_bps)

    def test_burst_behind_a_full_queue_is_dropped_whole(self):
        tor = ToRSwitch(FabricSpec(queue_frames=2), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        while tor.route(_batch(t=0.0)) is not None:
            pass  # saturate the egress queue past its bound
        dropped_before = tor.counters()["dropped"]
        assert tor.route(_batch(t=0.0, count=4)) is None
        assert tor.counters()["dropped"] == dropped_before + 4

    def test_single_frame_records_are_byte_identical_to_before(self):
        """Without a count column every record is one frame, and the
        routed batch comes back without one either."""
        tor = ToRSwitch(FabricSpec(), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        routed = tor.route(_batch(t=1.0))
        assert routed[4] is None
        assert _arrival(routed) == pytest.approx(
            1.0 + FabricSpec().latency_s +
            wire_bytes(1500) * 8 / FabricSpec().rate_bps)


class TestPrefixFitArithmetic:
    """The partial tail-drop path, pinned numerically: frame *k* of a
    burst sees ``queued + k * serialize_s`` of backlog, so the accepted
    prefix is ``int((bound - queued) / serialize_s) + 1``."""

    def test_fit_shrinks_with_existing_backlog(self):
        spec = FabricSpec(queue_frames=4)
        serialize_s = wire_bytes(1500) * 8 / spec.rate_bps
        tor = ToRSwitch(spec, host_count=2)
        tor.learn(0x02_0100_000001, 1)
        # Occupy two frames of line time, then offer a big burst at the
        # same instant: queued == 2 * serialize, bound == 4 * serialize,
        # so the fit is int((4 - 2)) + 1 = 3 frames.
        assert _count(tor.route(_batch(t=0.0, count=2))) == 2
        routed = tor.route(_batch(t=0.0, count=16))
        assert _count(routed) == 3
        assert tor.counters()["forwarded"] == 5
        assert tor.counters()["dropped"] == 13
        # And the arrival is the accepted prefix's last bit, not the
        # original burst's.
        assert _arrival(routed) == pytest.approx(
            spec.latency_s + 5 * serialize_s)

    def test_reset_counters_mid_window_preserves_conservation(self):
        from repro.audit import check_fabric_conservation
        tor = ToRSwitch(FabricSpec(queue_frames=2), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        tor.route(_batch(t=0.0, count=8))       # partial tail-drop
        tor.route(_batch(dst=0x02_0900_00BEEF))  # unknown dst
        tor.reset_counters()
        # The warmup->measurement boundary: counters zero, but the
        # egress booking survives, so the next burst still sees the
        # backlog — and the identity must hold over the new window
        # alone, with the carried-over queue charged as drops.
        routed = tor.route(_batch(t=0.0, count=8))
        counters = tor.counters()
        assert counters["offered"] == 8
        assert counters["offered"] == (counters["forwarded"] +
                                       counters["dropped"] +
                                       counters["unknown_dst"])
        assert (_count(routed) if routed else 0) == counters["forwarded"]
        check_fabric_conservation(tor)


class TestFaultTimelineRouting:
    """route() under a ClusterFaultTimeline: every fault outcome lands
    in exactly one conservation bucket."""

    def _tor(self, timeline, **spec_kw):
        tor = ToRSwitch(FabricSpec(**spec_kw), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        tor.set_timeline(timeline)
        return tor

    def test_silenced_source_drains(self):
        from repro.audit import check_fabric_conservation
        from repro.faults.cluster import ClusterFaultTimeline
        timeline = ClusterFaultTimeline(2)
        timeline.add_silence(0, 1.0, 2.0)
        tor = self._tor(timeline)
        assert tor.route(_batch(t=1.5, count=3)) is None
        assert tor.route(_batch(t=2.5)) is not None  # pause over
        counters = tor.counters()
        assert counters["drained"] == 3
        assert counters["forwarded"] == 1
        check_fabric_conservation(tor)

    def test_partition_drops_between_groups_only(self):
        from repro.faults.cluster import ClusterFaultTimeline
        timeline = ClusterFaultTimeline(2)
        timeline.add_partition(1.0, 2.0, {0: 0, 1: 1})
        tor = self._tor(timeline)
        assert tor.route(_batch(t=1.5)) is None
        assert tor.counters()["dropped_partition"] == 1
        assert tor.route(_batch(t=0.5)) is not None  # before the cut
        assert tor.route(_batch(t=2.5)) is not None  # healed

    def test_unreachable_destination_black_holes(self):
        from repro.faults.cluster import ClusterFaultTimeline
        timeline = ClusterFaultTimeline(2)
        timeline.set_unreachable(1, [(1.0, 2.0)])
        tor = self._tor(timeline)
        assert tor.route(_batch(t=1.5)) is None
        counters = tor.counters()
        assert counters["dropped_unreachable"] == 1
        assert counters["dropped"] == 1

    def test_degrade_stretches_latency_and_serialization(self):
        from repro.faults.cluster import ClusterFaultTimeline
        spec = FabricSpec()
        timeline = ClusterFaultTimeline(2)
        timeline.add_degrade(1, 1.0, 2.0, 3.0, 2.0)
        tor = self._tor(timeline)
        routed = tor.route(_batch(t=1.5))
        assert _arrival(routed) == pytest.approx(
            1.5 + spec.latency_s * 2.0 +
            wire_bytes(1500) * 8 * 3.0 / spec.rate_bps)

    def test_destination_dying_before_arrival_drains_without_booking(self):
        from repro.faults.cluster import ClusterFaultTimeline
        spec = FabricSpec()
        timeline = ClusterFaultTimeline(2)
        arrival = spec.latency_s + wire_bytes(1500) * 8 / spec.rate_bps
        timeline.add_silence(1, arrival - 1e-9, arrival + 1.0)
        tor = self._tor(timeline)
        assert tor.route(_batch(t=0.0)) is None
        assert tor.counters()["drained"] == 1
        # Nothing was clocked onto the dead port, so a frame after the
        # silence sees an empty queue, not a phantom booking.
        late = tor.route(_batch(t=arrival + 2.0))
        assert _arrival(late) == pytest.approx(arrival + 2.0 + arrival)

    def test_fault_counter_keys_gated_on_timeline(self):
        plain = ToRSwitch(FabricSpec(), host_count=2)
        assert "drained" not in plain.counters()
        assert "dropped_partition" not in plain.counters()
        from repro.faults.cluster import ClusterFaultTimeline
        faulted = self._tor(ClusterFaultTimeline(2))
        assert faulted.counters()["drained"] == 0
        assert faulted.counters()["dropped_unreachable"] == 0


class TestFabricConservation:
    def test_every_offered_frame_is_accounted_once(self):
        from repro.audit import check_fabric_conservation
        tor = ToRSwitch(FabricSpec(queue_frames=2), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        for count in (1, 3, 8, 1, 16):
            tor.route(_batch(t=0.0, count=count))
        tor.route(_batch(dst=0x02_0900_00BEEF, count=2))  # unknown dst
        counters = tor.counters()
        assert counters["offered"] == 31
        assert counters["offered"] == (counters["forwarded"] +
                                       counters["dropped"] +
                                       counters["unknown_dst"])
        check_fabric_conservation(tor)  # must not raise

    def test_violation_raises_with_details(self):
        from repro.audit import InvariantViolation, check_fabric_conservation
        tor = ToRSwitch(FabricSpec(), host_count=2)
        tor.learn(0x02_0100_000001, 1)
        tor.route(_batch(t=0.0))
        tor.forwarded -= 1  # seed a leak
        with pytest.raises(InvariantViolation, match="fabric-flow"):
            check_fabric_conservation(tor)
