"""The top-of-rack fabric: what connects SR-IOV hosts to each other.

The paper evaluates one server; a rack of them needs a switch.  This
module models the minimal deterministic ToR: every host hangs off one
uplink (its NIC ports' wire side), and the switch forwards frames
between hosts with a fixed one-way latency plus store-and-forward
serialization at the fabric rate, tail-dropping when a destination's
egress queue is over-booked.

The switch deliberately has **no event engine of its own**.  It is pure
arithmetic over timestamps, driven by the cluster coordinator
(:mod:`repro.cluster`): host engines hand it egress frames, it answers
with arrival times.  That keeps it trivially correct under the
conservative lockstep synchronization — the same code computes the same
floats whether the hosts run serially in one process or one process
each — and makes the fabric latency the synchronization lookahead
(SimBricks' insight: engines may free-run inside one link delay because
nothing can cross the fabric faster than it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.net.packet import DEFAULT_MTU, wire_bytes

#: Default fabric port speed: a 10 GbE ToR in front of 1 GbE hosts.
DEFAULT_UPLINK_GBPS = 10.0
#: Default one-way ToR latency (cut-through switch + a few meters of
#: copper); also the conservative-sync lookahead, so it must be > 0.
DEFAULT_LATENCY_S = 5e-6
#: Default per-egress-port queue bound, in MTU-sized frames.
DEFAULT_QUEUE_FRAMES = 256


@dataclass(frozen=True)
class FabricSpec:
    """Declarative fabric description (the ``Scenario.fabric`` field).

    Plain JSON-able values only, like every Scenario field: the dict
    form is the canonical form the sweep cache hashes.
    """

    uplink_gbps: float = DEFAULT_UPLINK_GBPS
    latency_s: float = DEFAULT_LATENCY_S
    queue_frames: int = DEFAULT_QUEUE_FRAMES

    def __post_init__(self):
        if self.uplink_gbps <= 0:
            raise ValueError("fabric uplink_gbps must be positive")
        if self.latency_s <= 0:
            raise ValueError(
                "fabric latency_s must be positive: it is the conservative "
                "synchronization lookahead between host engines")
        if self.queue_frames < 1:
            raise ValueError("fabric queue_frames must be at least 1")

    @property
    def rate_bps(self) -> float:
        return self.uplink_gbps * 1e9

    def to_dict(self) -> Dict[str, object]:
        return {"uplink_gbps": float(self.uplink_gbps),
                "latency_s": float(self.latency_s),
                "queue_frames": int(self.queue_frames)}

    @classmethod
    def from_dict(cls, data: Optional[Mapping]) -> "FabricSpec":
        if not data:
            return cls()
        known = {"uplink_gbps", "latency_s", "queue_frames"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown fabric fields: {unknown} "
                             f"(valid fields: {sorted(known)})")
        return cls(**{k: data[k] for k in known if k in data})


class ToRSwitch:
    """Deterministic store-and-forward arithmetic between host uplinks.

    ``route`` maps a batch of egress frames of one shape — wire times at
    the source host's uplink, destination MAC as int, ... — to their
    destination host and arrival times, dropping frames for an unknown
    destination or past the egress queue bound.  Per-destination egress
    serialization is booked in call order, so callers must route frames
    in a globally deterministic order (the coordinator uses (time,
    source host, sequence) per destination).
    """

    def __init__(self, spec: FabricSpec, host_count: int):
        self.spec = spec
        self._mac_to_host: Dict[int, int] = {}
        #: When each destination's fabric egress port goes idle.
        self._free_at: List[float] = [0.0] * host_count
        #: Deepest tolerated egress backlog, in seconds of line time.
        self._queue_bound_s = (spec.queue_frames *
                               wire_bytes(DEFAULT_MTU) * 8 / spec.rate_bps)
        #: Frames handed to :meth:`route` since the last counter reset.
        #: Conservation: ``offered == forwarded + dropped + unknown_dst
        #: + drained`` (asserted by
        #: :func:`repro.audit.check_fabric_conservation`).
        self.offered = 0
        self.forwarded = 0
        self.forwarded_bytes = 0
        self.dropped = 0
        self.unknown_dst = 0
        #: Frames from/to a silenced (crashed or paused) host — they
        #: left the wire but the endpoint was gone, so they are neither
        #: forwarded nor queue drops.
        self.drained = 0
        #: Sub-buckets of ``dropped`` (cluster fault attribution).
        self.dropped_partition = 0
        self.dropped_unreachable = 0
        #: Cluster fault timeline (:mod:`repro.faults.cluster`); None
        #: on fault-free fabrics, which keeps :meth:`route` the exact
        #: arithmetic it always was.
        self._timeline = None

    # ------------------------------------------------------------------
    # MAC learning (static: programmed from each host's VF table)
    # ------------------------------------------------------------------
    def learn(self, mac_value: int, host_index: int) -> None:
        if not 0 <= host_index < len(self._free_at):
            raise ValueError(f"host index {host_index} out of range")
        self._mac_to_host[mac_value] = host_index

    def host_for(self, mac_value: int) -> Optional[int]:
        return self._mac_to_host.get(mac_value)

    # ------------------------------------------------------------------
    # cluster fault timeline
    # ------------------------------------------------------------------
    def set_timeline(self, timeline) -> None:
        """Attach a :class:`~repro.faults.cluster.ClusterFaultTimeline`.

        Timeline checks are pure time-interval filters on the message
        timestamps, so routing stays deterministic arithmetic — the
        fault schedule is static plan data, never runtime state.
        """
        self._timeline = timeline

    def drain(self, count: int = 1) -> None:
        """Account frames that left a wire but met a silenced endpoint
        (used by the coordinator for frames already in flight when a
        host crashes)."""
        self.offered += count
        self.drained += count

    # ------------------------------------------------------------------
    # forwarding
    # ------------------------------------------------------------------
    def route(self, batch):
        """Route a batch of equal-shaped frames, in order.

        ``batch`` is ``(shape, times, seqs, created[, counts])``: the
        shape tuple ``(src_host, src, dst, size, vlan, protocol,
        flow_id)`` shared by every frame, then per-frame columns — wire
        time at the source uplink, source sequence number, original send
        time and (optionally) the frame count of each record.  Frames
        are routed one after another, so a caller routing several
        batches to one destination must interleave them in the global
        ``(t, src_host, seq)`` order itself.  Returns ``(dst_host,
        shape, arrivals, created, counts)`` for the forwarded frames
        (``counts`` None when every record is a single frame), or None
        when nothing was forwarded.

        The queue bound is applied per frame, not per record: frame *k*
        of a ``count``-frame record sees a queueing delay of ``(start -
        ready) + k * serialization``, so a record that straddles the
        bound keeps the fitting prefix and tail-drops only the remainder
        — dropping the whole record would punish frames that had queue
        room.  A forwarded record's count is its accepted prefix length
        and its arrival is when its last frame clears the egress port.

        A plain record dict (``t``, ``src_host``, ``dst``, ``size``,
        ``vlan``, ``count``...) routes as a one-record batch and comes
        back as the same dict with ``dst_host`` and ``arrival`` filled
        in (and ``count`` cut to the accepted prefix), or None.
        """
        if isinstance(batch, dict):
            return self._route_record(batch)
        shape, times, _seqs, created = batch[:4]
        counts = batch[4] if len(batch) > 4 else None
        src_host, _src, dst, size, vlan = shape[:5]
        timeline = self._timeline
        dst_host = self._mac_to_host.get(dst)
        if timeline is None:
            # Fault-free: no per-frame filter can fire before the
            # destination lookup, so an unknown destination is decided
            # for the whole batch.
            offered = len(times) if counts is None else sum(counts)
            self.offered += offered
            if dst_host is None:
                self.unknown_dst += offered
                return None
        frame_bytes = wire_bytes(size, vlan)
        rate_bps = self.spec.rate_bps
        latency = self.spec.latency_s
        bound = self._queue_bound_s
        line_serialize_s = frame_bytes * 8 / rate_bps
        free_at = self._free_at[dst_host] if dst_host is not None else 0.0
        arrivals: List[float] = []
        kept_created: List[float] = []
        kept_counts: List[int] = []
        forwarded = dropped = 0
        for i, t in enumerate(times):
            count = 1 if counts is None else counts[i]
            if timeline is None:
                ready = t + latency
                serialize_s = line_serialize_s
            else:
                self.offered += count
                if timeline.silenced(src_host, t):
                    # A paused/crashed host's frames never made it off
                    # the NIC onto the fabric — but the guest stack
                    # already booked them as offered, so account them
                    # as drained, not forwarded.
                    self.drained += count
                    continue
                if dst_host is None:
                    self.unknown_dst += count
                    continue
                if timeline.partitioned(src_host, dst_host, t):
                    dropped += count
                    self.dropped_partition += count
                    continue
                ready = t + (latency * timeline.latency_factor(
                    src_host, dst_host, t))
                if timeline.unreachable(dst_host, ready):
                    # Every cable of the destination host is unplugged:
                    # the ToR's egress port has no carrier, frames
                    # black-hole.
                    dropped += count
                    self.dropped_unreachable += count
                    continue
                serialize_s = (frame_bytes * 8 * timeline.rate_factor(
                    src_host, dst_host, t) / rate_bps)
            start = free_at if free_at > ready else ready
            queued = start - ready
            if queued > bound:
                dropped += count
                continue
            fit = count
            if count > 1 and serialize_s > 0.0:
                fit = min(count, int((bound - queued) / serialize_s) + 1)
            arrival = start + fit * serialize_s
            if timeline is not None and timeline.silenced(dst_host, arrival):
                # The destination pauses/crashes before the frames clear
                # the egress port: they drain at the ToR.  No free_at
                # booking — nothing was clocked onto the dead port.
                self.drained += count
                continue
            free_at = arrival
            forwarded += fit
            if fit < count:
                dropped += count - fit
            arrivals.append(arrival)
            kept_created.append(created[i])
            kept_counts.append(fit)
        self.forwarded += forwarded
        self.forwarded_bytes += forwarded * frame_bytes
        self.dropped += dropped
        if not arrivals:
            return None
        self._free_at[dst_host] = free_at
        return (dst_host, shape, arrivals, kept_created,
                None if counts is None else kept_counts)

    def _route_record(self, message: dict) -> Optional[dict]:
        count = message.get("count", 1)
        shape = (message.get("src_host"), message["src"], message["dst"],
                 message["size"], message["vlan"], message["protocol"],
                 message["flow_id"])
        routed = self.route((shape, [message["t"]], [message.get("seq")],
                             [message["created_at"]], [count]))
        if routed is None:
            return None
        dst_host, _shape, arrivals, _created, counts = routed
        if counts[0] < count:
            message["count"] = counts[0]
        message["dst_host"] = dst_host
        message["arrival"] = arrivals[0]
        return message

    def reset_counters(self) -> None:
        """Zero the traffic counters (measurement-window bookkeeping);
        the egress ``free_at`` bookings are simulation state and stay."""
        self.offered = 0
        self.forwarded = 0
        self.forwarded_bytes = 0
        self.dropped = 0
        self.unknown_dst = 0
        self.drained = 0
        self.dropped_partition = 0
        self.dropped_unreachable = 0

    def counters(self) -> Dict[str, int]:
        counters = {"offered": self.offered,
                    "forwarded": self.forwarded,
                    "forwarded_bytes": self.forwarded_bytes,
                    "dropped": self.dropped,
                    "unknown_dst": self.unknown_dst}
        # The fault buckets appear only on faulted fabrics so fault-free
        # cluster extras stay byte-identical to every earlier release.
        if self._timeline is not None:
            counters["drained"] = self.drained
            counters["dropped_partition"] = self.dropped_partition
            counters["dropped_unreachable"] = self.dropped_unreachable
        return counters
