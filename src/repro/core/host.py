"""One rack slot: a :class:`~repro.core.testbed.Testbed` with a fabric
uplink.

The paper's server becomes a *host* the moment it joins a cluster
scenario: same platform, same SR-IOV NICs and guests, plus (a) a MAC
realm so its locally administered addresses are fleet-unique, (b) wire
uplinks whose TX side feeds the ToR fabric instead of vanishing, and
(c) an ingress path that replays fabric deliveries into the right
port's wire receive.

A Host still owns its own :class:`~repro.sim.engine.Simulator`; the
cluster coordinator (:mod:`repro.cluster`) advances many of them in
conservative lockstep windows (:mod:`repro.sim.sync`).  Everything a
Host exchanges with the coordinator is plain data — spec dicts and routed
frame batches in, per-shape egress batches out — so the exact same Host
runs in-process or behind a worker-process pipe with bit-identical
results.
"""

from __future__ import annotations

import math
import zlib
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Tuple

from repro.core.costs import CostModel
from repro.core.experiment import MeasurementWindow
from repro.core.optimizations import OptimizationConfig
from repro.core.testbed import SriovGuest, Testbed, TestbedConfig
from repro.drivers.coalescing import AdaptiveCoalescing, policy_from_spec
from repro.net.fabric import require_int
from repro.net.link import Link
from repro.net.mac import MacAddress
from repro.net.netperf import NetperfStream
from repro.net.packet import DEFAULT_MTU, Protocol
from repro.sim.fluid import rearm
from repro.vmm.domain import DomainKind, GuestKernel

_KINDS = {"hvm": DomainKind.HVM, "pvm": DomainKind.PVM}
_KERNELS = {k.value: k for k in GuestKernel}
_PROTOCOLS = {p.value: p for p in Protocol}


class HorizonError(RuntimeError):
    """A collapsed host's replay contradicted what it certified ahead:
    egress already handed out would change.  Raised instead of letting
    the run diverge from exact."""


def derive_host_seed(base: int, name: str) -> int:
    """A host's private RNG seed: deterministic in (scenario seed, host
    name), decorrelated across hosts, identical across processes."""
    return (base * 2654435761 + zlib.crc32(name.encode("utf-8"))) % (1 << 32)


@dataclass(frozen=True)
class HostSpec:
    """Declarative per-host placement (one ``Scenario.hosts`` entry)."""

    name: str
    vm_count: int = 2
    kind: str = "hvm"
    kernel: str = "2.6.28"
    ports: int = 1
    vfs_per_port: int = 7
    #: Coalescing-policy spec for this host's guests; None keeps the
    #: adaptive default.
    policy: Optional[Mapping] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("host name must be non-empty")
        for fname in ("vm_count", "ports", "vfs_per_port"):
            require_int(f"host {self.name!r} {fname}", getattr(self, fname))
        if self.vm_count < 1:
            raise ValueError(f"host {self.name!r} needs at least one VM")
        if self.ports < 1 or self.vfs_per_port < 1:
            raise ValueError(f"host {self.name!r}: ports and vfs_per_port "
                             "must be positive")
        if self.vm_count > self.ports * self.vfs_per_port:
            raise ValueError(
                f"host {self.name!r} places {self.vm_count} VMs but has "
                f"only {self.ports * self.vfs_per_port} VFs")
        if self.kind not in _KINDS:
            raise ValueError(f"host {self.name!r} kind must be one of "
                             f"{sorted(_KINDS)}, not {self.kind!r}")
        if self.kernel not in _KERNELS:
            raise ValueError(f"host {self.name!r} kernel must be one of "
                             f"{sorted(_KERNELS)}, not {self.kernel!r}")
        if self.policy is not None:
            object.__setattr__(self, "policy", dict(self.policy))
            policy_from_spec(self.policy)  # fail here, not in a worker

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name, "vm_count": self.vm_count,
            "kind": self.kind, "kernel": self.kernel,
            "ports": self.ports, "vfs_per_port": self.vfs_per_port,
        }
        if self.policy is not None:
            data["policy"] = dict(self.policy)
        return data

    @classmethod
    def from_dict(cls, data: Mapping, index: int = 0) -> "HostSpec":
        known = {"name", "vm_count", "kind", "kernel", "ports",
                 "vfs_per_port", "policy"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown host fields: {unknown} "
                             f"(valid fields: {sorted(known)})")
        fields = {k: data[k] for k in known if k in data}
        fields.setdefault("name", f"h{index}")
        return cls(**fields)


@dataclass(frozen=True)
class FlowSpec:
    """One tenant traffic-matrix entry (one ``Scenario.flows`` item).

    A flow is a netperf stream from one placed VM to another, addressed
    by (host name, VM index).  Same-host flows ride the NIC's internal
    switch; cross-host flows leave on the source port's uplink and
    traverse the ToR fabric.
    """

    src_host: str
    dst_host: str
    src_vm: int = 0
    dst_vm: int = 0
    offered_bps: float = 400e6
    message_bytes: int = 1500
    protocol: str = "udp"

    def __post_init__(self):
        if not self.src_host or not self.dst_host:
            raise ValueError("flow src_host and dst_host must be non-empty")
        for fname in ("src_vm", "dst_vm", "message_bytes"):
            require_int(f"flow {fname}", getattr(self, fname))
        if self.src_vm < 0 or self.dst_vm < 0:
            raise ValueError("flow VM indexes must be non-negative")
        if not (math.isfinite(self.offered_bps) and self.offered_bps > 0):
            raise ValueError(f"flow offered_bps must be finite and > 0, "
                             f"not {self.offered_bps!r}")
        if self.message_bytes < 1:
            raise ValueError("flow message_bytes must be positive")
        if self.protocol not in _PROTOCOLS:
            raise ValueError(f"flow protocol must be one of "
                             f"{sorted(_PROTOCOLS)}, not {self.protocol!r}")

    def to_dict(self) -> Dict[str, object]:
        return {"src_host": self.src_host, "dst_host": self.dst_host,
                "src_vm": self.src_vm, "dst_vm": self.dst_vm,
                "offered_bps": float(self.offered_bps),
                "message_bytes": self.message_bytes,
                "protocol": self.protocol}

    @classmethod
    def from_dict(cls, data: Mapping) -> "FlowSpec":
        known = {"src_host", "dst_host", "src_vm", "dst_vm",
                 "offered_bps", "message_bytes", "protocol"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown flow fields: {unknown} "
                             f"(valid fields: {sorted(known)})")
        return cls(**{k: data[k] for k in known if k in data})


class Host:
    """A built testbed participating in a cluster run."""

    def __init__(self, spec: HostSpec, index: int, *,
                 costs: Optional[CostModel] = None,
                 base_seed: int = 42,
                 audit: bool = True,
                 telemetry: bool = False,
                 sim_mode: str = "exact",
                 faults: Optional[List[dict]] = None):
        if index < 0 or index > 0xFE:
            raise ValueError("a fabric supports at most 255 hosts")
        self.spec = spec
        self.index = index
        self.sim_mode = sim_mode
        # This host's slice of the cluster fault plan (host key already
        # stripped by split_plan): in-host kinds go to the testbed's
        # injector, uplink flaps to the bonding layer built below.
        local_specs: List[dict] = []
        uplink_specs: List[dict] = []
        for fault in (faults or ()):
            if fault["kind"] in ("uplink_down", "uplink_up"):
                uplink_specs.append(fault)
            else:
                local_specs.append(fault)
        config = TestbedConfig(
            ports=spec.ports,
            vfs_per_port=spec.vfs_per_port,
            costs=(costs or CostModel()).validate(),
            opts=OptimizationConfig.all(),
            seed=derive_host_seed(base_seed, spec.name),
            # Realm 0 is the historical single-host address space;
            # cluster members start at 1 so no host collides with it
            # (or with each other).
            mac_realm=index + 1,
            audit=audit,
            sim_mode=sim_mode,
            faults=local_specs or None,
            # Forked per host so two hosts running the same plan draw
            # decorrelated coin-flip sequences.
            fault_stream=f"faults/{spec.name}",
        )
        self.bed = Testbed(config)
        self.sim = self.bed.sim
        self.telemetry = None
        if telemetry:
            from repro.obs.telemetry import Telemetry
            self.telemetry = Telemetry(self.sim,
                                       namespace=f"host.{spec.name}")
            self.telemetry.attach_platform(self.bed.platform)
            for port in self.bed.ports:
                self.telemetry.attach_port(port)
        policy_spec = spec.policy
        costs_v = config.costs

        def make_policy():
            if policy_spec is not None:
                return policy_from_spec(policy_spec, costs_v)
            return AdaptiveCoalescing(costs_v)

        self.guests: List[SriovGuest] = [
            self.bed.add_sriov_guest(_KINDS[spec.kind],
                                     _KERNELS[spec.kernel], make_policy())
            for _ in range(spec.vm_count)
        ]
        #: Egress since the last :meth:`advance`, one batch per frame
        #: shape: ``{shape: (shape, times, seqs, created)}``.
        self._outbound: Dict[tuple, tuple] = {}
        self._egress_seq = 0
        #: ``(t, created_at)`` of egress handed out while collapsed but
        #: not yet delivered when the host left the fast path: the
        #: exact engine must now produce exactly these, in order, and
        #: they are not emitted twice.
        self._promised: Deque[Tuple[float, float]] = deque()
        self._mac_to_port = {guest.vf.mac.value: guest.port
                             for guest in self.guests}
        for port in self.bed.ports:
            uplink = Link(self.sim, rate_bps=port.LINE_RATE_BPS,
                          name=f"{spec.name}.{port.name}.uplink")
            uplink.connect(self._egress)
            port.attach_uplink(uplink)
        self.fault_layer = None
        if uplink_specs:
            from repro.faults.cluster import HostUplinkFaults
            self.fault_layer = HostUplinkFaults(
                self.sim, spec.name, self.bed.ports, uplink_specs)
        self._window: Optional[MeasurementWindow] = None
        self.uplink_tx_frames = 0

    # ------------------------------------------------------------------
    # wiring the coordinator sees
    # ------------------------------------------------------------------
    def mac_table(self) -> Dict[int, int]:
        """``{vm index: VF MAC as int}`` for this host's guests."""
        return {i: guest.vf.mac.value
                for i, guest in enumerate(self.guests)}

    def configure_flows(self, flows: List[dict]) -> None:
        """Start the netperf streams this host originates.

        Each entry carries ``src_vm``, ``dst_mac`` (already resolved by
        the coordinator from the cluster-wide MAC table), ``offered_bps``,
        ``message_bytes``, ``protocol`` and ``flow_id``.
        """
        streams = []
        for flow in flows:
            guest = self.guests[flow["src_vm"]]
            mtu = min(int(flow["message_bytes"]), DEFAULT_MTU)
            stream = NetperfStream(
                self.sim, guest.driver.transmit, guest.vf.mac,
                MacAddress(flow["dst_mac"]), flow["offered_bps"],
                _PROTOCOLS[flow["protocol"]], mtu=mtu,
                flow_id=flow["flow_id"],
                burst_interval=self.bed._burst_interval_for(
                    flow["offered_bps"]),
                name=f"{self.spec.name}.flow{flow['flow_id']}",
                pool=self.bed.packet_pool,
            )
            streams.append((guest, stream))
        if self.sim_mode == "fluid" and streams:
            self._attach_fluid(streams)
        for _guest, stream in streams:
            stream.start()
        fluid_flows = self.bed.fluid_flows
        if fluid_flows and not all(flow.active for flow in fluid_flows):
            # A sibling's begin() fell back to exact: sequence numbers
            # are host-global, so nobody collapses.
            self._evict_fluid()

    def _attach_fluid(self, streams) -> None:
        """Install a :class:`~repro.sim.fluid_host.FluidHostFlow` per
        stream — or none at all.

        Collapse is all-or-nothing per host: egress sequence numbers
        are host-global, so one exact stream beside a collapsed one
        would interleave live and handed-out egress.  The total-order
        replay also needs each port's event sources to belong to one
        flow, so two streams sharing a port keep the host exact.
        """
        from repro.sim.fluid_host import FluidHostFlow
        ports = {id(guest.port) for guest, _stream in streams}
        if len(ports) != len(streams):
            for _ in streams:
                self.bed.record_fluid_rejection("port_shared")
            return
        flows = []
        for guest, stream in streams:
            flow = FluidHostFlow(self, guest, stream)
            if not flow.try_attach():
                for earlier in flows:
                    earlier.detach()
                    self.bed.record_fluid_rejection("host_evicted")
                return
            flows.append(flow)
        self.bed.fluid_flows.extend(flows)

    # ------------------------------------------------------------------
    # lockstep stepping
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """This host's egress frontier: no frame leaves its uplinks
        before it from now on.

        Collapsed flows schedule no events, so each one's transmit
        frontier joins the engine's peek — that is what keeps the
        lockstep barrier's no-time-travel proof intact.  Pending virtual
        *fires* and arrivals produce no egress, so they are left out.
        """
        t = self.sim.peek()
        for flow in self.bed.fluid_flows:
            if flow.active:
                ft = flow.next_time()
                if t is None or ft < t:
                    t = ft
        return t

    def advance(self, window_end: float, inbound: List[tuple],
                until: float, rx_bps: float):
        """Inject fabric deliveries, run to the window end, and return
        ``(egress batches, egress frontier, collapsed)``.

        ``inbound`` holds routed batches ``(dst_host, shape, arrivals,
        created, counts)`` in arrival order; scheduling in that order
        keeps delivery order globally deterministic.  A port with an
        active fluid flow takes its batches into the flow's virtual
        queue here — the same instant, and the same order, the exact
        host would create the ``_ingress`` handles.

        A collapsed host then replays its transmit side ahead of the
        window, up to ``until`` at most, and hands out the egress it
        has certified (:meth:`_run_ahead`); ``rx_bps`` is the fabric's
        delivery rate, which bounds what inbound traffic can add to a
        port's DMA backlog meanwhile.  ``collapsed`` tells the
        coordinator that pending arrivals do not bound the frontier.
        """
        mac_to_port = self._mac_to_port
        for batch in inbound:
            shape = batch[1]
            port = mac_to_port.get(shape[2])
            if port is None:
                continue
            flow = port._fluid_tx
            if flow is not None and flow.active:
                if flow.accept_arrival(batch):
                    continue
                # A frame the collapsed replay cannot express: the whole
                # host leaves the fast path, and the batch takes the
                # exact ingress schedule it always had.
                self._evict_fluid()
            self._schedule_ingress(port, batch)
        self.sim.run(until=window_end)
        collapsed = False
        if self.sim_mode == "fluid":
            self.bed.settle_fluid()
            collapsed = self._run_ahead(until, rx_bps)
        outbound = list(self._outbound.values())
        self._outbound = {}
        return outbound, self.peek(), collapsed

    def _schedule_ingress(self, port, batch) -> None:
        _dst_host, shape, arrivals, created, counts = batch
        schedule_at = self.sim.schedule_at
        ingress = self._ingress
        for i, arrival in enumerate(arrivals):
            schedule_at(arrival, ingress, port, shape, created[i],
                        1 if counts is None else counts[i])

    def _run_ahead(self, until: float, rx_bps: float) -> bool:
        """Replay every collapsed flow's wire side ahead, then hand out
        the egress below the common transmit horizon.

        The horizon stops at ``until`` (inclusive: the exact run ends
        its last window there), at the engine's next event (which may
        change what the flows transmit), and wherever a flow's DMA
        backlog bound stops proving that the transmit drop cannot fire
        (:meth:`~repro.sim.fluid_host.FluidHostFlow.run_ahead`).
        Returns whether any flow is still collapsed.
        """
        flows = [flow for flow in self.bed.fluid_flows if flow.active]
        if not flows:
            return False
        nxt = self.sim.peek()
        if nxt is None or nxt > until:
            limit, inclusive = until, True
        else:
            limit, inclusive = nxt, False
        for flow in flows:
            flow.run_ahead(limit, inclusive, rx_bps)
        # Every delivery below the smallest transmit cursor is known on
        # every port; none past ``until`` leaves before the exact run's
        # next window does.
        cursor = min(flow._w_next for flow in flows)
        if cursor > until:
            cursor, inclusive = until, True
        else:
            inclusive = False
        self._number_egress([(flow, flow.take_egress(cursor, inclusive))
                             for flow in flows])
        return True

    def _number_egress(self, taken) -> None:
        """Hand out collapsed egress ``[(flow, (times, created))]``
        with sequence numbers assigned in delivery-time order across
        ports, which reproduces the exact run's host-global egress
        sequence (cross-port ties are measure-zero)."""
        seq = self._egress_seq
        if len(taken) == 1:
            flow, (times, created) = taken[0]
            end = seq + len(times)
            seqs = [range(seq, end)]
            seq = end
        else:
            order = sorted((t, k, i) for k, (_flow, (times, _created))
                           in enumerate(taken) for i, t in enumerate(times))
            seqs = [[0] * len(times) for _flow, (times, _c) in taken]
            for _t, k, i in order:
                seqs[k][i] = seq
                seq += 1
        self._egress_seq = seq
        for (flow, (times, created)), flow_seqs in zip(taken, seqs):
            if times:
                batch = self._batch_for(flow.egress_shape)
                batch[1].extend(times)
                batch[2].extend(flow_seqs)
                batch[3].extend(created)

    def _batch_for(self, shape: tuple) -> tuple:
        """This round's egress batch for one frame shape."""
        batch = self._outbound.get(shape)
        if batch is None:
            batch = (shape, [], [], [])
            self._outbound[shape] = batch
        return batch

    def _evict_fluid(self) -> None:
        """Take every collapsed flow exact, together, for good.

        The egress sequence column is host-global, so the flows must
        leave as a unit: replay everyone to the present, hand out the
        egress delivered by then (their seqs predate anything the exact
        engine will now emit), then materialize rings and re-arm real
        timers.  Egress handed out ahead of the present becomes a
        promise the exact engine must keep (:meth:`_egress`).
        """
        flows = [flow for flow in self.bed.fluid_flows if flow.active]
        sim = self.sim
        for flow in flows:
            flow.active = False
        for flow in flows:
            flow._advance(sim.now, not sim._running)
        if flows:
            split = [flow.split_egress() for flow in flows]
            self._number_egress([(flow, delivered) for flow, (delivered, _p)
                                 in zip(flows, split)])
            self._promised.extend(sorted(
                entry for _delivered, promised in split
                for entry in promised))
        pending = []
        for flow in flows:
            pending.extend(flow._finish_decollapse())
            self.bed.record_fluid_rejection("host_evicted")
        rearm(sim, pending)
        for flow in self.bed.fluid_flows:
            flow.detach()

    def _egress(self, packet) -> None:
        """Uplink TX sink: serialize the frame for the fabric.

        ``t`` is the moment the frame clears this host's wire — the
        coordinator's ToR model adds fabric latency and serialization on
        top.  Frames batch per shape as plain floats and ints, so they
        cross process boundaries (and the float bits in them survive
        pickling exactly).
        """
        self.uplink_tx_frames += 1
        now = self.sim.now
        promised = self._promised
        if promised:
            # Handed out (and numbered) while collapsed: the exact
            # engine must reproduce it, and it is not sent twice.
            if promised.popleft() != (now, packet.created_at):
                raise HorizonError(
                    f"host {self.spec.name!r}: exact egress at t={now!r} "
                    f"differs from the egress handed out while collapsed")
            return
        batch = self._batch_for((self.index, packet.src.value,
                                 packet.dst.value, packet.size_bytes,
                                 packet.vlan, packet.protocol.value,
                                 packet.flow_id))
        batch[1].append(now)
        batch[2].append(self._egress_seq)
        batch[3].append(packet.created_at)
        self._egress_seq += 1

    def _ingress(self, port, shape: tuple, created_at: float,
                 count: int) -> None:
        """Fabric delivery: rebuild the frame(s) from this host's pool
        and hand them to the owning port's wire side.  ``created_at`` is
        the original send time, so end-to-end latency spans the fabric;
        ``count`` rebuilds a whole routed record at once."""
        _src_host, src, dst, size, vlan, protocol, flow_id = shape
        burst = self.bed.packet_pool.acquire_burst(
            count, MacAddress(src), MacAddress(dst), size, vlan=vlan,
            protocol=_PROTOCOLS[protocol], flow_id=flow_id,
            created_at=created_at)
        port.wire_receive(burst)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def start_measurement(self) -> None:
        # Collapsed flows settled at the last window end (advance is
        # inclusive); the window's opening settle is the idempotent
        # backstop that keeps the measurement boundary a settle point.
        self._window = MeasurementWindow(
            self.bed, [guest.app for guest in self.guests],
            [guest.driver for guest in self.guests])

    def collect(self) -> dict:
        """End the window and report this host's share of the result:
        plain sums the coordinator reduces with every other host's
        (:func:`~repro.core.experiment.reduce_windows`)."""
        data = {
            "name": self.spec.name,
            **self._window.close(),
            "uplink_tx_frames": self.uplink_tx_frames,
            "events_executed": self.sim.events_executed,
        }
        if self.sim_mode == "fluid":
            data["events_collapsed"] = self.sim.collapsed_events
            data["fluid_flows"] = len(self.bed.fluid_flows)
            data["fluid_rejections"] = dict(self.bed.fluid_rejections)
        # The faults key exists only on faulted hosts, so fault-free
        # host dicts (and their aggregated extras) stay byte-identical.
        fault_summary: Dict[str, int] = {}
        if self.bed.injector is not None:
            fault_summary.update(self.bed.injector.summary())
        if self.fault_layer is not None:
            fault_summary.update(self.fault_layer.summary())
        if fault_summary:
            data["faults"] = fault_summary
        return data
