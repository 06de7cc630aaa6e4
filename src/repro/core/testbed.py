"""The §6.1 testbed, as a builder.

One call assembles the paper's "server": a 16-thread 2.8 GHz machine
running Xen (or bare metal), ten 82576 ports with 7 VFs each (Fig. 11's
allocation), the IOVM, and a PF driver per port.  Guests are then added
in the paper's three flavours — SR-IOV (a VF assigned through the IOVM),
PV (netfront/netback), or VMDq — and netperf client streams attached.

VF-to-guest allocation follows Fig. 11: guest *i* lands on port
``i mod ports`` taking that port's next VF, so "when 10 x n VMs are
employed, the assigned VFs will come from VF(7j+0) to VF(7j+n-1) for
each port j".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.devices.igb82576 import Igb82576Port, VirtualFunction
from repro.devices.ixgbe82598 import Ixgbe82598Port
from repro.drivers.coalescing import CoalescingPolicy, FixedItr
from repro.drivers.guest_app import NetserverApp
from repro.drivers.netback import Netback
from repro.drivers.netfront import Netfront
from repro.drivers.pf_igb import PfDriver
from repro.drivers.vf_igbvf import VfDriver
from repro.drivers.vmdq import VmdqService
from repro.net.netperf import NetperfStream
from repro.net.packet import (DEFAULT_MTU, PacketPool, Protocol,
                              udp_goodput_bps)
from repro.sim.engine import Simulator
from repro.sim.rand import RandomStreams
from repro.vmm.domain import Domain, DomainKind, GuestKernel
from repro.vmm.hotplug import HotplugController
from repro.vmm.hypervisor import NativeHost, Xen
from repro.vmm.iovm import Iovm, VfAssignment
from repro.net.mac import MacAddress


@dataclass
class TestbedConfig:
    """Knobs for building a testbed."""

    ports: int = 10
    vfs_per_port: int = 7
    costs: CostModel = field(default_factory=CostModel)
    opts: OptimizationConfig = field(default_factory=OptimizationConfig.all)
    native: bool = False
    seed: int = 42
    #: SR-IOV NIC family: "82576" (the paper's ten 1 GbE ports) or
    #: "82599" (the 10 GbE part that shipped after the paper — the
    #: what-if its §6.1 footnote anticipates).
    nic: str = "82576"
    #: Install the :class:`repro.obs.Telemetry` facade (a live tracer
    #: and metrics registry across the platform, ports and drivers).
    #: Off by default: the null tracer/registry path costs nothing.
    telemetry: bool = False
    #: Install the host-side :class:`repro.obs.EngineProfiler`
    #: (wall-clock per simulator callback; never in the metrics JSON).
    profile: bool = False
    #: Declarative fault plan (a list of :mod:`repro.faults` spec
    #: dicts) armed against the testbed at build time.  None/empty
    #: builds the exact testbed it always did.
    faults: Optional[Sequence[Mapping]] = None
    #: Name of the seeded stream the injector forks its random draws
    #: from.  Cluster hosts pass ``faults/<host-name>`` so two hosts
    #: running the same plan draw decorrelated coin-flip sequences; the
    #: single-host default keeps the historical stream.
    fault_stream: str = "faults"
    #: Install the runtime invariant auditor
    #: (:class:`repro.audit.InvariantAuditor`).  Opt-out: the default
    #: end-of-run audit is observation-only, so results stay
    #: byte-identical to unaudited runs.
    audit: bool = True
    #: Additionally audit every N simulated seconds (None = run end
    #: only).  Periodic audits consume event sequence numbers, so they
    #: are opt-in.
    audit_interval: Optional[float] = None
    #: Context embedded in a violation's repro dump (the experiment
    #: layer passes the scenario dict here).
    audit_context: Optional[Mapping] = None
    #: Construction hook, called as ``observer(bed)`` once the testbed
    #: is fully assembled.  Observation-only by contract: the campaign
    #: telemetry streamer uses it to grab ``bed.sim`` for heartbeat
    #: sampling without ever scheduling an event.
    observer: Optional[Callable[["Testbed"], None]] = None
    #: MAC realm byte (bits 24-31 of every locally administered MAC the
    #: testbed hands out).  Multi-host clusters give each host its own
    #: realm so VF and client MACs are fleet-unique; the default 0
    #: reproduces the historical single-host addresses bit for bit.
    mac_realm: int = 0
    #: Datapath simulation mode: ``"exact"`` (one event per burst tick)
    #: or ``"fluid"`` (eligible steady-state SR-IOV client streams ride
    #: the collapsed-window fast path of :mod:`repro.sim.fluid`, with
    #: byte-identical results by construction; ineligible streams stay
    #: exact automatically).
    sim_mode: str = "exact"


@dataclass
class SriovGuest:
    """Everything attached to one SR-IOV guest."""

    domain: Domain
    vf: VirtualFunction
    assignment: Optional[VfAssignment]
    driver: VfDriver
    app: NetserverApp
    port: Igb82576Port
    stream: Optional[NetperfStream] = None


@dataclass
class PvGuest:
    """Everything attached to one PV-NIC guest."""

    domain: Domain
    netfront: Netfront
    app: NetserverApp
    stream: Optional[NetperfStream] = None


class Testbed:
    """The assembled server platform."""

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config or TestbedConfig()
        if self.config.sim_mode not in ("exact", "fluid"):
            raise ValueError(
                f"sim_mode must be 'exact' or 'fluid', "
                f"not {self.config.sim_mode!r}")
        self.sim = Simulator()
        #: Collapsed-window flows (see :mod:`repro.sim.fluid`); only
        #: populated under ``sim_mode="fluid"``.
        self.fluid_flows: List = []
        #: Client streams attached per port (id(port) -> count): a
        #: port's second and later streams join a merged replay group.
        self._port_streams: Dict[int, int] = {}
        #: id(port) -> FluidPortGroup for ports carrying more than one
        #: collapsed stream (see :class:`repro.sim.fluid.FluidPortGroup`).
        self._fluid_groups: Dict[int, object] = {}
        #: The fluid replay's virtual seq counter: every virtual
        #: schedule draws from it (see :mod:`repro.sim.fluid`).
        self.virtual_seq = count()
        #: Gate name -> how many flows that ``try_attach`` gate refused
        #: (the ``fluid.rejected.<gate>`` diagnostic; empty in exact
        #: mode and when everything collapsed).
        self.fluid_rejections: Dict[str, int] = {}
        self.streams = RandomStreams(self.config.seed)
        #: Run-scoped packet allocator: per-run deterministic seqs.
        self.packet_pool = PacketPool()
        if self.config.native:
            self.platform = NativeHost(self.sim, self.config.costs)
        else:
            self.platform = Xen(self.sim, self.config.costs, self.config.opts)
        self.telemetry = None
        if self.config.telemetry:
            from repro.obs.telemetry import Telemetry
            self.telemetry = Telemetry(self.sim)
            self.telemetry.attach_platform(self.platform)
        self.profiler = None
        if self.config.profile:
            from repro.obs.profiler import EngineProfiler
            self.profiler = EngineProfiler(self.sim)
            self.profiler.install()
        self.hotplug = HotplugController(self.sim)
        self.iovm = Iovm(self.platform)
        self.ports: List[Igb82576Port] = []
        self.pf_drivers: List[PfDriver] = []
        self._dom0 = self._host_context()
        self._netback: Optional[Netback] = None
        self._vmdq_port: Optional[Ixgbe82598Port] = None
        self._vmdq_service: Optional[VmdqService] = None
        self._build_ports()
        self.sriov_guests: List[SriovGuest] = []
        self.pv_guests: List[PvGuest] = []
        realm_bits = self.config.mac_realm << 24
        self._client_macs = iter(range(0x02_0000_FF0000 | realm_bits,
                                       0x02_0000_FFFFFF | realm_bits))
        self.injector = None
        if self.config.faults:
            from repro.faults import FaultInjector, FaultPlan
            self.injector = FaultInjector(
                FaultPlan.from_specs(self.config.faults),
                self.streams.fork(self.config.fault_stream))
            self.injector.install(self)
        self.auditor = None
        if self.config.audit:
            from repro.audit import InvariantAuditor
            self.auditor = InvariantAuditor(
                self, context=self.config.audit_context)
            if self.config.audit_interval:
                self.auditor.install(self.config.audit_interval)
        if self.config.observer is not None:
            self.config.observer(self)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _host_context(self) -> Domain:
        if isinstance(self.platform, Xen):
            return self.platform.dom0
        return self.platform.create_guest("host")

    def _build_ports(self) -> None:
        if self.config.nic == "82576":
            port_cls = Igb82576Port
        elif self.config.nic == "82599":
            from repro.devices.ixgbe82599 import Ixgbe82599Port
            port_cls = Ixgbe82599Port
        else:
            raise ValueError(f"unknown SR-IOV NIC family {self.config.nic!r}")
        for index in range(self.config.ports):
            port = port_cls(self.sim, index, iommu=self.platform.iommu)
            self.platform.root_complex.attach(port.pf.pci, bus=index + 1,
                                              device=0)
            port.interrupt_sink = self.platform.deliver_msi
            pf_driver = PfDriver(self.platform, self._dom0, port,
                                 mac_realm=self.config.mac_realm)
            pf_driver.start()
            pf_driver.enable_sriov(self.config.vfs_per_port)
            self.iovm.surface_vfs(port)
            self.ports.append(port)
            self.pf_drivers.append(pf_driver)
            if self.telemetry is not None:
                self.telemetry.attach_port(port)

    # ------------------------------------------------------------------
    # SR-IOV guests
    # ------------------------------------------------------------------
    def add_sriov_guest(
        self,
        kind: DomainKind = DomainKind.HVM,
        kernel: GuestKernel = GuestKernel.LINUX_2_6_28,
        policy: Optional[CoalescingPolicy] = None,
        name: str = "",
    ) -> SriovGuest:
        """Create a guest with a dedicated VF per the Fig. 11 layout."""
        index = len(self.sriov_guests)
        port = self.ports[index % len(self.ports)]
        vf_index = index // len(self.ports)
        if vf_index >= self.config.vfs_per_port:
            raise RuntimeError(
                f"port {port.name} out of VFs "
                f"({self.config.vfs_per_port} per port)")
        vf = port.vf(vf_index)
        name = name or f"vm{index}"
        domain = self.platform.create_guest(name, kind, kernel)
        assignment = None
        if not self.config.native:
            assignment = self.iovm.assign(vf, domain)
        else:
            self.platform.iommu.attach(vf.pci.rid, domain.io_page_table)
        app = NetserverApp(self.config.costs, name=f"{name}.netserver")
        driver = VfDriver(self.platform, domain, vf,
                          policy or FixedItr(2000), app)
        driver.start()
        guest = SriovGuest(domain, vf, assignment, driver, app, port)
        self.sriov_guests.append(guest)
        return guest

    # ------------------------------------------------------------------
    # PV guests
    # ------------------------------------------------------------------
    @property
    def netback(self) -> Netback:
        if self._netback is None:
            threads = None  # cost-model default (the enhanced driver)
            self._netback = Netback(self.platform, self._dom0, threads)
        return self._netback

    def use_single_thread_netback(self) -> None:
        """Switch to the stock single-threaded backend (§6.5)."""
        if self._netback is not None:
            raise RuntimeError("netback already instantiated")
        self._netback = Netback(self.platform, self._dom0,
                                self.config.costs.netback_threads_unenhanced)

    def add_pv_guest(
        self,
        kind: DomainKind = DomainKind.HVM,
        kernel: GuestKernel = GuestKernel.LINUX_2_6_28,
        name: str = "",
    ) -> PvGuest:
        index = len(self.pv_guests)
        name = name or f"pv{index}"
        domain = self.platform.create_guest(name, kind, kernel)
        app = NetserverApp(self.config.costs, name=f"{name}.netserver")
        netfront = Netfront(self.platform, domain, app)
        self.netback.connect(netfront)
        guest = PvGuest(domain, netfront, app)
        self.pv_guests.append(guest)
        return guest

    # ------------------------------------------------------------------
    # VMDq
    # ------------------------------------------------------------------
    @property
    def vmdq_service(self) -> VmdqService:
        """The 82598 + its dom0 service, built on first use (§6.6)."""
        if self._vmdq_service is None:
            self._vmdq_port = Ixgbe82598Port(self.sim)
            self._vmdq_service = VmdqService(self.platform, self._dom0,
                                             self._vmdq_port)
            if self.telemetry is not None:
                self.telemetry.attach_port(self._vmdq_port)
        return self._vmdq_service

    def add_vmdq_guest(self, kind: DomainKind = DomainKind.PVM,
                       name: str = "") -> PvGuest:
        index = len(self.pv_guests)
        name = name or f"vmdq{index}"
        domain = self.platform.create_guest(name, kind)
        app = NetserverApp(self.config.costs, name=f"{name}.netserver")
        netfront = Netfront(self.platform, domain, app)
        mac = MacAddress(0x02_0000_00F000 + index)
        netfront.mac = mac
        self.vmdq_service.register_guest(netfront, mac)
        guest = PvGuest(domain, netfront, app)
        self.pv_guests.append(guest)
        return guest

    # ------------------------------------------------------------------
    # client traffic
    # ------------------------------------------------------------------
    def _next_client_mac(self) -> MacAddress:
        return MacAddress(next(self._client_macs))

    def _burst_interval_for(self, throughput_bps: float) -> float:
        """Netperf batch quantum: ~8 packets per burst.

        Small enough that interrupt-throttle behaviour is accurate up
        to 20 kHz ITR (two trigger opportunities per 100 us window) and
        per-interrupt batch jitter stays ~1 burst; bounded on both ends
        to keep event counts sane across the 1-60 VM sweeps.
        """
        from repro.net.packet import packets_per_second
        pps = max(1.0, packets_per_second(throughput_bps))
        return min(2e-3, max(100e-6, 8.0 / pps))

    def attach_client_to_sriov(self, guest: SriovGuest, throughput_bps: float,
                               protocol: Protocol = Protocol.UDP,
                               mtu: int = DEFAULT_MTU) -> NetperfStream:
        """A netperf client sending to the guest's VF from the wire."""
        assert guest.vf.mac is not None
        stream = NetperfStream(
            self.sim, guest.port.wire_receive, self._next_client_mac(),
            guest.vf.mac, throughput_bps, protocol, mtu,
            burst_interval=self._burst_interval_for(throughput_bps),
            name=f"client->{guest.domain.name}",
            pool=self.packet_pool,
        )
        guest.stream = stream
        shared = self._port_streams.get(id(guest.port), 0)
        self._port_streams[id(guest.port)] = shared + 1
        if self.config.sim_mode == "fluid":
            self._try_fluid(guest, stream, prior_streams=shared)
        return stream

    def record_fluid_rejection(self, gate: str) -> None:
        """Count a refused ``try_attach`` gate (satellite diagnostic:
        surfaced in ``repro sriov --sim-mode=fluid`` output and as the
        ``fluid.rejected.<gate>`` metric when telemetry is on)."""
        self.fluid_rejections[gate] = self.fluid_rejections.get(gate, 0) + 1
        self.platform.metrics.scope("fluid").counter(
            f"rejected.{gate}").value += 1

    def _try_fluid(self, guest: SriovGuest, stream: NetperfStream,
                   prior_streams: int) -> None:
        """Attach the collapsed-window fast path where its exactness
        contract holds (see :class:`repro.sim.fluid.FluidFlow`).

        Streams sharing a port collapse together through a
        :class:`repro.sim.fluid.FluidPortGroup` (merged replay over
        the shared DMA pipe); if any stream on the port cannot attach,
        the whole port runs exact — collapsed and exact streams cannot
        interleave their bookings.
        """
        from repro.sim.fluid import FluidFlow
        port = guest.port
        group = self._fluid_groups.get(id(port))
        if group is not None and group.dead:
            self.record_fluid_rejection("port_evicted")
            return
        if prior_streams > 0:
            collapsed_peers = sum(
                1 for f in self.fluid_flows
                if f.port is port and f.stream._fluid is f)
            if collapsed_peers != prior_streams:
                # An exact stream already owns part of this port: its
                # real events would interleave with collapsed bookings.
                self._evict_port_fluid(port)
                self.record_fluid_rejection("port_exact_peer")
                return
        flow = FluidFlow(self, guest, stream)
        if not flow.try_attach():
            if prior_streams > 0:
                self._evict_port_fluid(port)
            return
        if prior_streams > 0:
            self._port_group(port).add(flow)
        self.fluid_flows.append(flow)

    def _port_group(self, port):
        """The port's :class:`repro.sim.fluid.FluidPortGroup`, made on
        first use from the port's collapsed streams."""
        from repro.sim.fluid import FluidPortGroup
        group = self._fluid_groups.get(id(port))
        if group is None:
            group = FluidPortGroup(self, port)
            self._fluid_groups[id(port)] = group
            for other in self.fluid_flows:
                if other.port is port and other.group is None:
                    group.add(other)
        return group

    def _evict_port_fluid(self, port) -> None:
        """Force every collapsed stream on ``port`` exact (a stream
        that cannot collapse arrived)."""
        self._port_group(port).evict()

    def settle_fluid(self) -> None:
        """Apply every collapsed tick up to (and including) the current
        instant — the run-end catch-up the measurement loop calls
        before reading counters."""
        for flow in self.fluid_flows:
            flow.settle()

    def attach_client_to_pv(self, guest: PvGuest, throughput_bps: float,
                            protocol: Protocol = Protocol.UDP,
                            mtu: int = DEFAULT_MTU) -> NetperfStream:
        """A netperf client whose packets arrive via dom0's bridge and
        are copied in by netback."""
        dst = MacAddress(0x02_0000_00E000 + guest.netfront.frontend_id)
        stream = NetperfStream(
            self.sim,
            lambda burst: self.netback.deliver(guest.netfront, burst),
            self._next_client_mac(), dst, throughput_bps, protocol, mtu,
            burst_interval=self._burst_interval_for(throughput_bps),
            name=f"client->{guest.domain.name}",
            pool=self.packet_pool,
        )
        guest.stream = stream
        return stream

    def attach_client_to_vmdq(self, guest: PvGuest, throughput_bps: float,
                              protocol: Protocol = Protocol.UDP,
                              mtu: int = DEFAULT_MTU) -> NetperfStream:
        assert self._vmdq_port is not None, "no VMDq guests added yet"
        stream = NetperfStream(
            self.sim, self._vmdq_port.wire_receive, self._next_client_mac(),
            guest.netfront.mac, throughput_bps, protocol, mtu,
            burst_interval=self._burst_interval_for(throughput_bps),
            name=f"client->{guest.domain.name}",
            pool=self.packet_pool,
        )
        guest.stream = stream
        return stream

    # ------------------------------------------------------------------
    # per-port line sharing
    # ------------------------------------------------------------------
    def per_vm_line_share_bps(self, vm_count: int,
                              protocol: Protocol = Protocol.UDP) -> float:
        """Each port's goodput divided among the VMs sharing it."""
        from repro.net.packet import tcp_goodput_bps
        port_count = len(self.ports)
        vms_per_port = -(-vm_count // port_count)  # ceil
        line = self.ports[0].LINE_RATE_BPS
        goodput = (udp_goodput_bps(line) if protocol is Protocol.UDP
                   else tcp_goodput_bps(line))
        return goodput / vms_per_port
