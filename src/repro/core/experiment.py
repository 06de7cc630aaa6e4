"""Experiment runners: the measurement loops behind every figure.

Each ``run_*`` method assembles a :class:`~repro.core.testbed.Testbed`,
attaches netperf clients, lets the system warm up, measures a window,
and returns a :class:`RunResult` carrying exactly the quantities the
paper plots: delivered throughput, xentop-style CPU breakdown, loss,
interrupt rates, and (for Fig. 7) the VM-exit cycle breakdown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.core.testbed import Testbed, TestbedConfig
from repro.drivers.coalescing import (
    AdaptiveCoalescing,
    CoalescingPolicy,
    FixedItr,
    policy_from_spec,
)
from repro.net.mac import MacAddress
from repro.net.netperf import NetperfStream
from repro.net.packet import (
    DEFAULT_MTU,
    Protocol,
    packets_per_second,
    tcp_goodput_bps,
    udp_goodput_bps,
)
from repro.net.tcp import TcpThroughputModel
from repro.vmm.domain import DomainKind, GuestKernel

#: Default measurement schedule: enough warmup for throttles and AIC
#: sampling to settle, then a steady-state window.
DEFAULT_WARMUP = 1.2
DEFAULT_DURATION = 0.5

#: Schema tag stamped into every serialized :class:`RunResult`.  Bump it
#: whenever the dict layout changes: the sweep cache folds it into its
#: content hash, so old cache entries simply miss instead of
#: deserializing wrongly.
RESULT_SCHEMA = "repro-result/1"


@dataclass
class RunResult:
    """What one experiment run reports."""

    vm_count: int
    duration: float
    #: Aggregate application goodput across all guests (bps).
    throughput_bps: float
    per_vm_throughput_bps: List[float]
    #: xentop-style utilization: {"guest": ..., "xen": ..., "dom0": ...}
    #: (or {"native": ...}), in percent-of-one-thread units.
    cpu: Dict[str, float]
    #: Packet loss across all guests (fraction of offered).
    loss_rate: float
    #: Mean per-guest interrupt rate over the window (Hz).
    interrupt_hz: float
    #: Fig. 7's instrument: VM-exit cycles/second by exit kind.
    exit_cycles_per_second: Dict[str, float] = field(default_factory=dict)
    exit_counts: Dict[str, int] = field(default_factory=dict)
    #: End-to-end packet latency in seconds (mean over all packets,
    #: worst p99 across guests) — the §5.3 coalescing tradeoff's other
    #: axis.
    latency_mean: float = 0.0
    latency_p99: float = 0.0
    #: Mode-specific payload that has no column of its own (the
    #: migration runs put their report and sampled timelines here).
    #: Must stay JSON-serializable: it rides through
    #: :meth:`to_dict`/:meth:`from_dict` verbatim.
    extras: Dict[str, object] = field(default_factory=dict)
    #: The run's :class:`repro.obs.Telemetry` facade, when the runner
    #: was built with ``telemetry=True`` (for --metrics-json /
    #: --trace-out exports after the run).
    telemetry: Optional[object] = field(default=None, repr=False, compare=False)
    #: The run's :class:`repro.obs.EngineProfiler`, when ``profile=True``.
    profiler: Optional[object] = field(default=None, repr=False, compare=False)
    #: Fluid-datapath diagnostics when the run used ``sim_mode="fluid"``:
    #: ``{"collapsed_events", "events_executed", "flows", "rejections"}``.
    #: Excluded from comparison and serialization (like telemetry /
    #: profiler): a fluid run's *results* are byte-identical to exact,
    #: and this sidecar must not break that equality or the cache
    #: schema.
    fluid: Optional[Dict[str, object]] = field(default=None, repr=False,
                                               compare=False)

    @property
    def total_cpu_percent(self) -> float:
        return sum(self.cpu.values())

    @property
    def throughput_gbps(self) -> float:
        return self.throughput_bps / 1e9

    # ------------------------------------------------------------------
    # serialization: the one schema the sweep cache, the figure
    # artifacts, and cross-process job results all share.
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-able dict of the run's measurements.

        The live ``telemetry``/``profiler`` handles are dropped: they
        hold simulator state and cannot (and should not) cross a
        process boundary or a cache file.  ``extras`` is normalized
        through JSON so that ``from_dict(to_dict(r)) == r`` holds
        exactly (tuples become lists once, not lazily on reload).
        """
        return {
            "schema": RESULT_SCHEMA,
            "vm_count": self.vm_count,
            "duration": self.duration,
            "throughput_bps": self.throughput_bps,
            "per_vm_throughput_bps": list(self.per_vm_throughput_bps),
            "cpu": dict(self.cpu),
            "loss_rate": self.loss_rate,
            "interrupt_hz": self.interrupt_hz,
            "exit_cycles_per_second": dict(self.exit_cycles_per_second),
            "exit_counts": dict(self.exit_counts),
            "latency_mean": self.latency_mean,
            "latency_p99": self.latency_p99,
            "extras": json.loads(json.dumps(self.extras)),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "RunResult":
        """Rebuild a result serialized by :meth:`to_dict`."""
        schema = data.get("schema")
        if schema != RESULT_SCHEMA:
            raise ValueError(f"cannot load result schema {schema!r} "
                             f"(this build reads {RESULT_SCHEMA!r})")
        return cls(
            vm_count=int(data["vm_count"]),
            duration=float(data["duration"]),
            throughput_bps=float(data["throughput_bps"]),
            per_vm_throughput_bps=list(data["per_vm_throughput_bps"]),
            cpu=dict(data["cpu"]),
            loss_rate=float(data["loss_rate"]),
            interrupt_hz=float(data["interrupt_hz"]),
            exit_cycles_per_second=dict(data["exit_cycles_per_second"]),
            exit_counts={k: int(v)
                         for k, v in dict(data["exit_counts"]).items()},
            latency_mean=float(data["latency_mean"]),
            latency_p99=float(data["latency_p99"]),
            extras=dict(data.get("extras") or {}),
        )


def _end_audit(bed: Testbed) -> None:
    """The end-of-run invariant pass (a no-op when auditing is off)."""
    if bed.auditor is not None:
        bed.auditor.audit(phase="end")


class MeasurementWindow:
    """One testbed's measured window, from warm-up end to horizon.

    Opening it settles the fluid flows, so warm-up virtual events
    charge *before* the accounting reset exactly as their real
    counterparts would have, then zeroes the platform's accounts and
    the apps and notes each driver's interrupt count.  :meth:`close`
    returns the window's plain sums and counts; :func:`reduce_windows`
    turns one window (a single-host run) or one per host (a cluster)
    into the :class:`RunResult`.
    """

    def __init__(self, bed: Testbed, apps: Sequence, drivers: Sequence):
        self.bed = bed
        self.apps = apps
        self.drivers = drivers
        bed.settle_fluid()
        bed.platform.start_measurement()
        for app in self.apps:
            app.reset()
        self._interrupts_before = [d.interrupts_handled
                                   for d in self.drivers]

    def close(self) -> Dict[str, object]:
        """End the window and return its sums, plain data that crosses
        a worker pipe and reduces exactly."""
        bed = self.bed
        # Collapsed flows catch up to the horizon before anything reads
        # counters (a no-op outside sim_mode="fluid").
        bed.settle_fluid()
        elapsed = bed.platform.end_measurement()
        _end_audit(bed)
        apps = self.apps
        per_vm = [app.throughput_bps(elapsed) for app in apps]
        # Fig. 7's exit breakdown, read from the cycle ledger.  NativeHost
        # has a ledger too, with no exit.* cells, so the native baseline
        # reports empty.
        exit_cycles: Dict[str, float] = {}
        exit_counts: Dict[str, int] = {}
        for kind, (count, cycles) in \
                bed.platform.ledger.exit_breakdown().items():
            if cycles > 0:
                exit_cycles[kind] = cycles
            if count:
                exit_counts[kind] = count
        return {
            "vm_count": len(apps),
            "elapsed": elapsed,
            "throughput_bps": sum(per_vm),
            "per_vm_throughput_bps": per_vm,
            "cpu": bed.platform.utilization_breakdown(),
            "offered_packets": sum(app.rx_packets + app.dropped_packets
                                   for app in apps),
            "dropped_packets": sum(app.dropped_packets for app in apps),
            "interrupt_delta": sum(
                driver.interrupts_handled - before for driver, before
                in zip(self.drivers, self._interrupts_before)),
            "driver_count": len(self.drivers),
            "exit_cycles": exit_cycles,
            "exit_counts": exit_counts,
            "latency_sum": sum(app.latency.mean * app.latency.count
                               for app in apps),
            "latency_count": sum(app.latency.count for app in apps),
            "latency_p99": max((app.latency.percentile(99) for app in apps
                                if app.latency.count), default=0.0),
        }


def reduce_windows(windows: Sequence[Mapping], lost: int = 0,
                   **fields) -> RunResult:
    """One :class:`RunResult` from closed :class:`MeasurementWindow`
    sums.

    Rates divide by the longest window.  ``lost`` counts packets that
    were offered but dropped before any guest's books (netback and VMDq
    drops on one host; fabric and uplink drops in a cluster), so it
    adds to both offered and dropped.  ``fields`` (``extras``,
    ``telemetry``, ``profiler``, ``fluid``) pass through to the result.
    """
    elapsed = max(window["elapsed"] for window in windows)
    per_vm: List[float] = []
    cpu: Dict[str, float] = {}
    exit_cycles: Dict[str, float] = {}
    exit_counts: Dict[str, int] = {}
    offered = dropped = lost
    interrupt_delta = driver_count = latency_count = 0
    latency_sum = latency_p99 = 0.0
    for window in windows:
        per_vm.extend(window["per_vm_throughput_bps"])
        for account, percent in window["cpu"].items():
            cpu[account] = cpu.get(account, 0.0) + percent
        for kind, cycles in window["exit_cycles"].items():
            exit_cycles[kind] = exit_cycles.get(kind, 0.0) + cycles
        for kind, count in window["exit_counts"].items():
            exit_counts[kind] = exit_counts.get(kind, 0) + count
        offered += window["offered_packets"]
        dropped += window["dropped_packets"]
        interrupt_delta += window["interrupt_delta"]
        driver_count += window["driver_count"]
        latency_sum += window["latency_sum"]
        latency_count += window["latency_count"]
        latency_p99 = max(latency_p99, window["latency_p99"])
    return RunResult(
        vm_count=len(per_vm),
        duration=elapsed,
        throughput_bps=sum(per_vm),
        per_vm_throughput_bps=per_vm,
        cpu=cpu,
        loss_rate=dropped / offered if offered else 0.0,
        interrupt_hz=(interrupt_delta / driver_count / elapsed
                      if driver_count and elapsed > 0 else 0.0),
        exit_cycles_per_second={kind: cycles / elapsed
                                for kind, cycles in exit_cycles.items()
                                if elapsed > 0},
        exit_counts=exit_counts,
        latency_mean=latency_sum / latency_count if latency_count else 0.0,
        latency_p99=latency_p99,
        **fields,
    )


def steady_tcp_rate(policy: CoalescingPolicy, line_share_bps: float,
                    line_rate_bps: float = 1e9,
                    mtu: int = DEFAULT_MTU,
                    tcp_model: Optional[TcpThroughputModel] = None) -> float:
    """Fixed point of the TCP <-> coalescing feedback loop.

    The sender's achievable rate depends on the RX interrupt interval
    (ACK delay); adaptive policies pick the interval from the achieved
    packet rate.  A few iterations converge for every policy the paper
    sweeps.
    """
    model = tcp_model or TcpThroughputModel()
    rate = min(line_share_bps, tcp_goodput_bps(line_rate_bps, mtu))
    for _ in range(8):
        pps = packets_per_second(rate, mtu, Protocol.TCP)
        interval = policy.on_sample(pps)
        if interval is None:
            interval = policy.initial_interval()
        rate = min(line_share_bps, model.throughput_bps(line_rate_bps, interval, mtu))
    return rate


class ExperimentRunner:
    """Builds testbeds and runs the paper's measurement loops."""

    def __init__(self, costs: Optional[CostModel] = None,
                 warmup: float = DEFAULT_WARMUP,
                 duration: float = DEFAULT_DURATION,
                 telemetry: bool = False,
                 profile: bool = False,
                 seed: int = 42,
                 faults: Optional[Sequence[Mapping]] = None,
                 audit: bool = True,
                 audit_interval: Optional[float] = None,
                 audit_context: Optional[Mapping] = None,
                 observer: Optional[Callable] = None,
                 sim_mode: str = "exact"):
        self.costs = (costs or CostModel()).validate()
        if sim_mode not in ("exact", "fluid"):
            raise ValueError(f"sim_mode must be 'exact' or 'fluid', "
                             f"not {sim_mode!r}")
        #: Datapath mode: ``"fluid"`` lets eligible steady-state SR-IOV
        #: streams ride the collapsed-window fast path
        #: (:mod:`repro.sim.fluid`); results are byte-identical by
        #: construction and each ineligible stream stays exact under a
        #: named gate.  :meth:`run_sriov` (and therefore
        #: :meth:`run_native`) and :meth:`run_intervm_sriov` consult it.
        self.sim_mode = sim_mode
        self.warmup = warmup
        self.duration = duration
        self.telemetry = telemetry
        self.profile = profile
        self.seed = seed
        #: Declarative fault plan (validated spec dicts, see
        #: :mod:`repro.faults`); armed against every testbed built.
        self.faults = list(faults) if faults else None
        #: Runtime invariant auditing (see :mod:`repro.audit`): opt-out
        #: end-of-run conservation checks, optionally periodic.
        self.audit = audit
        self.audit_interval = audit_interval
        self.audit_context = dict(audit_context) if audit_context else None
        #: Testbed-construction hook (see ``TestbedConfig.observer``);
        #: observation-only, installed into every testbed built.
        self.observer = observer

    def _config(self, **kwargs) -> TestbedConfig:
        """A TestbedConfig carrying the runner's costs and telemetry
        switches, with per-run overrides."""
        kwargs.setdefault("costs", self.costs)
        kwargs.setdefault("telemetry", self.telemetry)
        kwargs.setdefault("profile", self.profile)
        kwargs.setdefault("seed", self.seed)
        kwargs.setdefault("faults", self.faults)
        kwargs.setdefault("audit", self.audit)
        kwargs.setdefault("audit_interval", self.audit_interval)
        kwargs.setdefault("audit_context", self.audit_context)
        kwargs.setdefault("observer", self.observer)
        return TestbedConfig(**kwargs)

    def _policy_callable(
        self,
        policy: Optional[Mapping],
        policy_factory: object = None,
    ) -> Optional[Callable[[], CoalescingPolicy]]:
        """Turn a declarative policy spec into a per-guest factory.

        ``policy_factory`` closures were deprecated through the v1 API
        cycle (they cannot cross the sweep engine's process pool) and
        are now removed; passing one is a hard error with the
        migration spelled out.  Returns None when no spec is given so
        callers keep their per-experiment defaults.
        """
        if policy_factory is not None:
            raise TypeError(
                "policy_factory= was removed (it was deprecated because "
                "closures cannot be pickled, cached, or swept): pass a "
                "declarative policy= spec instead, e.g. "
                "policy={'kind': 'fixed_itr', 'hz': 2000} or "
                "policy={'kind': 'aic'} — see docs/api.md")
        if policy is not None:
            return lambda: policy_from_spec(policy, self.costs)
        return None

    # ------------------------------------------------------------------
    # SR-IOV receive-side runs (Figs. 6, 8, 9, 12, 15, 16 and native)
    # ------------------------------------------------------------------
    def run_sriov(
        self,
        vm_count: int,
        kind: DomainKind = DomainKind.HVM,
        kernel: GuestKernel = GuestKernel.LINUX_2_6_28,
        opts: Optional[OptimizationConfig] = None,
        policy: Optional[Mapping] = None,
        policy_factory: Optional[Callable[[], CoalescingPolicy]] = None,
        protocol: Protocol = Protocol.UDP,
        ports: int = 10,
        vfs_per_port: int = 7,
        native: bool = False,
        offered_bps_per_vm: Optional[float] = None,
        nic: str = "82576",
    ) -> RunResult:
        """netperf RX into ``vm_count`` SR-IOV guests (§6.1's setup)."""
        opts_obj = opts if opts is not None else OptimizationConfig.all()
        policy_factory = self._policy_callable(policy, policy_factory)
        if policy_factory is None:
            # The §5.3 optimization switch selects the driver's policy:
            # AIC when on, the VF driver's 2 kHz default otherwise.
            if opts_obj.adaptive_coalescing:
                policy_factory = lambda: AdaptiveCoalescing(self.costs)
            else:
                policy_factory = lambda: FixedItr(2000)
        # Anything ineligible — a fault plan included (the ``faults``
        # gate) — is caught stream-by-stream in FluidFlow.try_attach.
        config = self._config(
            ports=ports, vfs_per_port=vfs_per_port,
            opts=opts_obj, native=native, nic=nic, sim_mode=self.sim_mode,
        )
        bed = Testbed(config)
        guests = [bed.add_sriov_guest(kind, kernel, policy_factory())
                  for _ in range(vm_count)]
        line_share = bed.per_vm_line_share_bps(vm_count, protocol)
        for guest in guests:
            offered = offered_bps_per_vm
            if offered is None:
                if protocol is Protocol.TCP:
                    offered = steady_tcp_rate(guest.driver.policy, line_share)
                else:
                    offered = line_share
            bed.attach_client_to_sriov(guest, offered, protocol).start()
        return self._measure(bed, [g.app for g in guests],
                             [g.driver for g in guests])

    def run_sriov_tx(
        self,
        vm_count: int,
        kind: DomainKind = DomainKind.HVM,
        policy: Optional[Mapping] = None,
        policy_factory: Optional[Callable[[], CoalescingPolicy]] = None,
        ports: int = 10,
    ) -> RunResult:
        """Transmit-side experiment (an extension beyond the paper's
        receive-side evaluation): each guest blasts UDP at a remote
        client through its VF and the physical line.

        Delivered throughput is what survives the uplinks' line-rate
        serialization; the guests pay TX cycles but take no receive
        interrupts.
        """
        from repro.net.link import Link
        config = self._config(ports=ports, opts=OptimizationConfig.all())
        policy_factory = (self._policy_callable(policy, policy_factory)
                          or (lambda: FixedItr(2000)))
        bed = Testbed(config)
        delivered = {"packets": 0, "payload_bytes": 0}

        def client_sink(packet):
            delivered["packets"] += 1
            delivered["payload_bytes"] += packet.payload_bytes

        for port in bed.ports:
            wire = Link(bed.sim, rate_bps=port.LINE_RATE_BPS,
                        name=f"{port.name}.uplink")
            wire.connect(client_sink)
            port.attach_uplink(wire)
        guests = [bed.add_sriov_guest(kind, policy=policy_factory())
                  for _ in range(vm_count)]
        share = bed.per_vm_line_share_bps(vm_count)
        client_mac = MacAddress(0x02_0000_00C000)
        for guest in guests:
            NetperfStream(
                bed.sim, guest.driver.transmit, guest.vf.mac, client_mac,
                share, Protocol.UDP,
                burst_interval=bed._burst_interval_for(share),
                name=f"{guest.domain.name}.tx",
                pool=bed.packet_pool,
            ).start()
        sim = bed.sim
        sim.run(until=sim.now + self.warmup)
        bed.platform.start_measurement()
        delivered["packets"] = 0
        delivered["payload_bytes"] = 0
        sim.run(until=sim.now + self.duration)
        elapsed = bed.platform.end_measurement()
        _end_audit(bed)
        throughput = (delivered["payload_bytes"] * 8 / elapsed
                      if elapsed > 0 else 0.0)
        offered = sum(g.vf.tx_packets + g.vf.tx_backlog_drops
                      for g in guests)
        drops = sum(g.vf.tx_backlog_drops for g in guests)
        return RunResult(
            vm_count=vm_count, duration=elapsed,
            throughput_bps=throughput,
            per_vm_throughput_bps=[throughput / vm_count] * vm_count,
            cpu=bed.platform.utilization_breakdown(),
            loss_rate=drops / offered if offered else 0.0,
            interrupt_hz=0.0,
            telemetry=bed.telemetry,
            profiler=bed.profiler,
        )

    def run_native(self, vm_count: int = 10,
                   policy: Optional[Mapping] = None,
                   policy_factory: Optional[Callable[[], CoalescingPolicy]] = None,
                   **kwargs) -> RunResult:
        """The bare-metal baseline: VF drivers on the host OS (§6.2)."""
        return self.run_sriov(vm_count, native=True, policy=policy,
                              policy_factory=policy_factory, **kwargs)

    # ------------------------------------------------------------------
    # PV NIC runs (Figs. 17, 18)
    # ------------------------------------------------------------------
    def run_pv(
        self,
        vm_count: int,
        kind: DomainKind = DomainKind.HVM,
        single_thread_backend: bool = False,
        protocol: Protocol = Protocol.UDP,
        ports: int = 10,
    ) -> RunResult:
        config = self._config(ports=ports, opts=OptimizationConfig.all())
        bed = Testbed(config)
        if single_thread_backend:
            bed.use_single_thread_netback()
        guests = [bed.add_pv_guest(kind) for _ in range(vm_count)]
        line_share = bed.per_vm_line_share_bps(vm_count, protocol)
        for guest in guests:
            bed.attach_client_to_pv(guest, line_share, protocol).start()
        return self._measure(bed, [g.app for g in guests], [])

    # ------------------------------------------------------------------
    # VMDq runs (Fig. 19)
    # ------------------------------------------------------------------
    def run_vmdq(self, vm_count: int,
                 kind: DomainKind = DomainKind.PVM) -> RunResult:
        config = self._config(ports=1, opts=OptimizationConfig.all())
        bed = Testbed(config)
        guests = [bed.add_vmdq_guest(kind) for _ in range(vm_count)]
        # One 10 GbE port shared by everyone.
        share = udp_goodput_bps(10e9) / vm_count
        for guest in guests:
            bed.attach_client_to_vmdq(guest, share).start()
        return self._measure(bed, [g.app for g in guests], [])

    # ------------------------------------------------------------------
    # inter-VM runs (Figs. 10, 13, 14)
    # ------------------------------------------------------------------
    def run_intervm_sriov(self, message_bytes: int = 1500,
                          offered_bps: float = 5e9,
                          policy: Optional[Mapping] = None,
                          policy_factory: Optional[Callable[[], CoalescingPolicy]] = None,
                          kind: DomainKind = DomainKind.HVM,
                          sender: str = "guest") -> RunResult:
        """Inter-VM traffic through the NIC's internal switch, capped by
        the double DMA crossing (§6.3).

        ``sender`` selects the transmitting side: ``"guest"`` (two VFs,
        the Fig. 13 setup) or ``"dom0"`` (the PF's own queues into a
        guest's VF — "domain 0 sends packets to the guest", Fig. 10).
        """
        if sender not in ("guest", "dom0"):
            raise ValueError(f"sender must be 'guest' or 'dom0', not {sender!r}")
        config = self._config(ports=1, opts=OptimizationConfig.all(),
                              sim_mode=self.sim_mode)
        # Inter-VM rates exceed the line rate, so the driver must scale
        # its interrupt frequency with them — AIC by default (§5.3's
        # Fig. 10 is exactly this scenario).
        policy_factory = (self._policy_callable(policy, policy_factory)
                          or (lambda: AdaptiveCoalescing(self.costs)))
        bed = Testbed(config)
        if sender == "guest":
            tx_guest = bed.add_sriov_guest(kind, policy=policy_factory())
            transmit = tx_guest.driver.transmit
            src_mac = tx_guest.vf.mac
            sender_domain = tx_guest.domain
            tx_function = tx_guest.vf
            tx_driver = tx_guest.driver
        else:
            pf_driver = bed.pf_drivers[0]
            transmit = pf_driver.transmit
            src_mac = bed.ports[0].pf.mac
            sender_domain = pf_driver.dom0
            tx_function = bed.ports[0].pf
            tx_driver = pf_driver
        receiver = bed.add_sriov_guest(kind, policy=policy_factory())
        mtu = min(message_bytes, DEFAULT_MTU)
        stream = NetperfStream(
            bed.sim, transmit, src_mac, receiver.vf.mac,
            offered_bps, Protocol.UDP, mtu=mtu,
            burst_interval=100e-6, name="intervm",
            pool=bed.packet_pool,
        )
        if self.sim_mode == "fluid":
            from repro.sim.fluid import FluidLoopbackFlow
            flow = FluidLoopbackFlow(bed, receiver, stream, sender_domain,
                                     tx_function, tx_driver)
            if flow.try_attach():
                bed.fluid_flows.append(flow)
        stream.start()
        receiver.stream = stream
        return self._measure(bed, [receiver.app], [receiver.driver])

    def run_intervm_pv(self, message_bytes: int = 1500,
                       offered_bps: float = 8e9,
                       kind: DomainKind = DomainKind.PVM) -> RunResult:
        """dom0 CPU-copies packets between two PV guests (§6.3)."""
        config = self._config(ports=1, opts=OptimizationConfig.all())
        bed = Testbed(config)
        receiver = bed.add_pv_guest(kind)
        # Inter-VM PV traffic is a single flow: it rides one backend
        # thread, with per-message cost amortizing over frames.  The
        # message size maps to whole MTU frames (1500 -> 1, 4000 -> 3).
        udp_payload = DEFAULT_MTU - 28
        frames = max(1, round(message_bytes / udp_payload))
        netback = bed.netback
        base = self.costs.netback_cycles_per_packet_pvm
        if kind is DomainKind.HVM:
            base += self.costs.netback_hvm_extra_cycles
        # Split the calibrated per-packet cost evenly into per-message
        # fixed overhead (syscall, ring, event) and per-frame copy work:
        # larger messages amortize the fixed half, which is the paper's
        # explanation for PV inter-VM bandwidth rising with message size
        # (§6.3: "each system call consumes more data, spending less
        # overhead in the network stack").
        fixed, per_frame = 0.5 * base, 0.5 * base
        per_message_cycles = fixed + per_frame * frames

        executor = netback.executors[0]

        def intervm_sink(burst):
            # Group the burst into messages of `frames` frames each.
            messages = max(1, len(burst) // frames)
            cycles = per_message_cycles * messages

            def complete(burst=burst):
                receiver.netfront.receive_burst(burst)

            if not executor.submit(cycles, complete):
                netback.dropped_packets += len(burst)

        mtu = min(message_bytes, DEFAULT_MTU)
        stream = NetperfStream(
            bed.sim, intervm_sink,
            MacAddress(0x02_0000_00D000), MacAddress(0x02_0000_00D001),
            offered_bps, Protocol.UDP, mtu=mtu, burst_interval=100e-6,
            name="intervm-pv",
            pool=bed.packet_pool,
        )
        stream.start()
        return self._measure(bed, [receiver.app], [])

    # ------------------------------------------------------------------
    # live migration runs (Figs. 20, 21)
    # ------------------------------------------------------------------
    def run_migrate(self, variant: str = "dnis", start_at: float = 4.5,
                    kind: DomainKind = DomainKind.HVM,
                    sample_period: float = 0.1,
                    settle: float = 2.0) -> RunResult:
        """Live-migrate one netperf-loaded guest (§6.7).

        ``variant`` selects the Fig. 20 setup (``"pv"``: plain PV NIC
        migration) or the Fig. 21 setup (``"dnis"``: SR-IOV with
        dynamic network interface switching).  The migration report and
        the sampled throughput/dom0 timelines land in
        :attr:`RunResult.extras` under ``"migration"`` and
        ``"timeline"`` — the figures' data, in the one schema the sweep
        cache stores.
        """
        from repro.drivers.netfront import Netfront
        from repro.migration import (
            DnisGuest,
            MigrationManager,
            PrecopyConfig,
            Sampler,
        )
        from repro.net.netperf import NetperfStream

        if variant not in ("pv", "dnis"):
            raise ValueError(f"variant must be 'pv' or 'dnis', "
                             f"not {variant!r}")
        bed = Testbed(self._config(ports=1))
        line = udp_goodput_bps(1e9)
        # A migration_degrade fault divides the migration link's
        # bandwidth (a congested or rate-limited migration network);
        # factor 1.0 leaves the pre-copy model byte-identical.
        from repro.faults import FaultPlan
        plan = FaultPlan.from_specs(self.faults or ())
        migration_link_bps = PrecopyConfig().link_bps / \
            plan.migration_degrade_factor()
        if bed.injector is not None:
            # migration_degrade is applied here, not scheduled, so it
            # counts as injected at the point of application.
            bed.injector.injected += sum(
                1 for spec in plan.to_list()
                if spec["kind"] == "migration_degrade")
        dnis_guest = None
        if variant == "pv":
            pv = bed.add_pv_guest(kind)
            app = pv.app
            bed.attach_client_to_pv(pv, line).start()
            manager = MigrationManager(bed.platform, bed.hotplug,
                                       PrecopyConfig(
                                           link_bps=migration_link_bps))
        else:
            sriov = bed.add_sriov_guest(kind)
            app = sriov.app
            netfront = Netfront(bed.platform, sriov.domain, app=sriov.app)
            bed.netback.connect(netfront)
            dnis_guest = DnisGuest(bed.platform, sriov.domain, sriov.driver,
                                   netfront, bed.hotplug)
            NetperfStream(bed.sim, dnis_guest.wire_sink,
                          MacAddress.parse("02:00:00:00:99:99"),
                          sriov.vf.mac, line, name="client",
                          pool=bed.packet_pool).start()
            # During pre-copy the service rides the slower PV path,
            # dirtying fewer pages; 0.15 calibrates the blackout to the
            # paper's 10.3 s start.
            manager = MigrationManager(bed.platform, bed.hotplug,
                                       PrecopyConfig(
                                           dirty_ratio=0.15,
                                           link_bps=migration_link_bps))
        sampler = Sampler(bed.sim, period=sample_period)
        sampler.track("rx_bytes", lambda: app.rx_bytes)
        machine = bed.platform.machine
        sampler.track("dom0_cycles", lambda: machine.cycles("dom0"))
        sampler.start()
        if variant == "pv":
            _, report = manager.migrate_pv(pv.netfront, start_at)
            horizon = start_at + manager.model.total_time + settle
        else:
            _, report = manager.migrate_dnis(dnis_guest, start_at)
            # +1.0: the DNIS interface switch precedes the migration
            # proper.
            horizon = start_at + 1.0 + manager.model.total_time + settle
        bed.platform.start_measurement()
        bed.sim.run(until=horizon)
        elapsed = bed.platform.end_measurement()
        _end_audit(bed)
        throughput = app.rx_bytes * 8 / elapsed if elapsed > 0 else 0.0
        offered = app.rx_packets + app.dropped_packets
        migration = {
            "variant": variant,
            "start_at": start_at,
            "started_at": report.started_at,
            "switch_completed_at": report.switch_completed_at,
            "round_durations": list(report.round_durations),
            "blackout_start": report.blackout_start,
            "blackout_end": report.blackout_end,
            "completed_at": report.completed_at,
            "downtime": report.downtime,
            "total_time": report.total_time,
            "events": [[time, name] for time, name in report.events],
        }
        if dnis_guest is not None:
            migration["active_path"] = dnis_guest.active_path
        extras = {"migration": migration}
        if self.faults:
            # Fault runs key differently in the cache (the plan is in
            # the scenario dict), so they may carry extra payload;
            # fault-free results stay byte-identical to before.
            fault_info: Dict[str, object] = {}
            if bed.injector is not None:
                fault_info.update(bed.injector.summary())
            if plan.migration_degrade_factor() != 1.0:
                fault_info["migration_link_factor"] = \
                    plan.migration_degrade_factor()
            extras["faults"] = fault_info
            if dnis_guest is not None:
                migration["failovers"] = [
                    [record.time, record.from_slave, record.to_slave]
                    for record in dnis_guest.bond.failovers]
        timeline = {
            "period": sample_period,
            "series": {
                name: {"times": list(sampler.series(name).times),
                       "values": list(sampler.series(name).values)}
                for name in ("rx_bytes", "dom0_cycles")
            },
        }
        return RunResult(
            vm_count=1,
            duration=elapsed,
            throughput_bps=throughput,
            per_vm_throughput_bps=[throughput],
            cpu=bed.platform.utilization_breakdown(),
            loss_rate=app.dropped_packets / offered if offered else 0.0,
            interrupt_hz=0.0,
            extras={**extras, "timeline": timeline},
            telemetry=bed.telemetry,
            profiler=bed.profiler,
        )

    # ------------------------------------------------------------------
    # the measurement loop
    # ------------------------------------------------------------------
    def _measure(self, bed: Testbed, apps, drivers) -> RunResult:
        sim = bed.sim
        sim.run(until=sim.now + self.warmup)
        window = MeasurementWindow(bed, apps, drivers)
        sim.run(until=sim.now + self.duration)
        closed = window.close()
        # dom0-side drops (saturated copy threads) also count against
        # offered traffic.
        lost = sum(service.dropped_packets
                   for service in (bed._netback, bed._vmdq_service)
                   if service is not None)
        extras: Dict[str, object] = {}
        if self.faults and bed.injector is not None:
            extras["faults"] = bed.injector.summary()
        fluid = None
        if bed.config.sim_mode == "fluid":
            fluid = {
                "collapsed_events": sim.collapsed_events,
                "events_executed": sim.events_executed,
                "flows": len(bed.fluid_flows),
                "rejections": dict(bed.fluid_rejections),
            }
        return reduce_windows([closed], lost, extras=extras,
                              telemetry=bed.telemetry,
                              profiler=bed.profiler, fluid=fluid)
