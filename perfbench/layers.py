"""Which methods the traced run wraps, and the per-layer metrics.

Span names are ``<group>:<Class>.<method>``.  The group is what a timing metric
sums (``devices.rx`` covers both ``wire_receive`` and
``device_receive``), and its first dotted part is the layer
(``devices``) whose ``self_s`` the span's self time adds to.  Every
wrapped method is a public entry point of its layer; nothing inside
``src/`` knows it is being timed.

Counts come from the simulator's public state after the run wherever
one exists (``events_executed``, ``interrupts_posted``, ``copies``...),
so they are identical in exact and fluid runs of the same inputs.  Call
counts taken from spans (``devices.rx_bursts``, ``vmm.vlapic.injects``,
``sim.fluid_host.arrivals``) count calls that actually happened, which a
fluid run skips.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional

from spans import SpanRecorder, Target

#: (module, class, [methods], group) for every wrapped entry point.
_TARGETS = [
    ("repro.sim.engine", "Simulator", ["run"], "sim.engine"),
    ("repro.core.testbed", "Testbed",
     ["__init__", "add_sriov_guest", "add_pv_guest",
      "attach_client_to_sriov", "attach_client_to_pv"],
     "core.testbed.setup"),
    ("repro.core.host", "Host", ["__init__", "configure_flows"],
     "core.testbed.setup"),
    ("repro.core.host", "Host", ["advance"], "core.host.advance"),
    ("repro.hw.dma", "DescriptorRing",
     ["program_buffers", "post_until_full"], "hw.dma.program"),
    ("repro.hw.dma", "DescriptorRing",
     ["post", "reap", "consume", "rearm_until_full"], "hw.dma.ring"),
    ("repro.hw.iommu", "Iommu", ["translate"], "hw.iommu"),
    ("repro.hw.msi", "MsixCapability", ["raise_vector"], "hw.msi"),
    ("repro.devices.igb82576", "Igb82576Port", ["wire_receive"],
     "devices.rx"),
    ("repro.devices.igb82576", "_NetFunction", ["device_receive"],
     "devices.rx"),
    ("repro.devices.igb82576", "_NetFunction", ["hw_transmit"],
     "devices.tx"),
    ("repro.devices.igb82576", "Igb82576Port", ["route_transmit"],
     "devices.tx"),
    ("repro.drivers.napi", "NapiContext", ["poll"], "drivers.napi.poll"),
    ("repro.drivers.guest_app", "NetserverApp",
     ["deliver", "deliver_fluid"], "drivers.guest_app.deliver"),
    ("repro.drivers.netback", "Netback", ["deliver"],
     "drivers.netback.deliver"),
    ("repro.drivers.netfront", "Netfront", ["receive_burst"],
     "drivers.netfront.receive"),
    ("repro.vmm.hypervisor", "Xen", ["deliver_msi"], "vmm.deliver_msi"),
    ("repro.vmm.virtual_lapic", "VirtualLapic", ["inject"],
     "vmm.vlapic.inject"),
    ("repro.vmm.grant_table", "GrantTable", ["grant_copy"],
     "vmm.grant_table.copy"),
    ("repro.vmm.event_channel", "EventChannels", ["notify"],
     "vmm.event_channel.notify"),
    ("repro.net.packet", "PacketPool", ["acquire_burst"],
     "net.packet.acquire"),
    ("repro.net.link", "Link", ["transmit"], "net.link.transmit"),
    ("repro.net.fabric", "ToRSwitch", ["route"], "net.fabric.route"),
    ("repro.core.testbed", "Testbed", ["settle_fluid"], "sim.fluid.settle"),
    ("repro.sim.fluid", "FluidFlow", ["settle"], "sim.fluid.settle"),
    ("repro.sim.fluid", "FluidFlow", ["try_attach"], "sim.fluid.attach"),
    ("repro.sim.fluid_host", "FluidHostFlow", ["try_attach"],
     "sim.fluid.attach"),
    ("repro.sim.fluid_host", "FluidHostFlow", ["accept_arrival"],
     "sim.fluid_host.arrival"),
    ("repro.sim.sync", "LockstepBarrier", ["next_window"], "sim.sync"),
    ("repro.cluster.runner", "ClusterCoordinator", ["run"],
     "cluster.coordinator"),
    ("repro.cluster.runner", "InProcessHost",
     ["advance_begin", "advance_finish"], "cluster.host"),
    ("repro.audit.auditor", "InvariantAuditor", ["audit"], "audit"),
]

#: Spans named per receiving object (``<name>#k``): the testbeds, whose
#: public state the counts read, and the cluster host runners, whose
#: per-host time gives the barrier imbalance.
PER_INSTANCE = ("core.testbed.setup:Testbed.__init__",
                "cluster.host:InProcessHost.advance_begin",
                "cluster.host:InProcessHost.advance_finish")

LAYERS = ("sim", "core", "devices", "hw", "drivers", "vmm", "net",
          "cluster", "audit")

#: The exit kinds :class:`repro.vmm.vmexit.VmExitKind` defines.
EXIT_KINDS = ("external-interrupt", "apic-access-eoi", "apic-access-other",
              "msix-mask", "msix-unmask", "io-instruction", "hypercall",
              "other")

#: name -> (unit, better) for every per-layer metric, in report order.
METRICS: Dict[str, tuple] = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.events": ("count", "lower"),
    "sim.engine.ns_per_event": ("ns", "lower"),
    "core.testbed.setup_s": ("s", "lower"),
    "hw.dma.program_s": ("s", "lower"),
    "devices.rx_s": ("s", "lower"),
    "devices.rx_bursts": ("count", "lower"),
    "devices.ns_per_packet": ("ns", "lower"),
    "devices.tx_s": ("s", "lower"),
    "hw.dma.ring_s": ("s", "lower"),
    "hw.iommu.translations": ("count", "lower"),
    "hw.msi.raised": ("count", "lower"),
    "drivers.napi.poll_s": ("s", "lower"),
    "drivers.napi.polls": ("count", "lower"),
    "drivers.napi.pkts_per_poll": ("count", "higher"),
    "drivers.guest_app.deliver_s": ("s", "lower"),
    "vmm.deliver_msi_s": ("s", "lower"),
    "vmm.vlapic.injects": ("count", "lower"),
    **{f"vmm.exits.{kind}": ("count", "lower") for kind in EXIT_KINDS},
    "vmm.grant_table.copy_s": ("s", "lower"),
    "vmm.grant_table.copies": ("count", "lower"),
    "vmm.event_channel.notifies": ("count", "lower"),
    "drivers.netback.deliver_s": ("s", "lower"),
    "drivers.netback.dropped": ("count", "lower"),
    "drivers.netfront.receive_s": ("s", "lower"),
    "net.packet.acquire_s": ("s", "lower"),
    "net.packet.acquired": ("count", "lower"),
    "net.link.transmit_s": ("s", "lower"),
    "sim.fluid.settle_s": ("s", "lower"),
    "sim.fluid.collapsed_events": ("count", "higher"),
    "sim.fluid.collapsed_frac": ("ratio", "higher"),
    "sim.fluid.attach_ratio": ("ratio", "higher"),
    "sim.fluid.rejected": ("count", "lower"),
    "sim.fluid.rejected.tracer": ("count", "lower"),
    "core.host.advance_s": ("s", "lower"),
    "sim.fluid_host.arrivals": ("count", "lower"),
    "net.fabric.route_s": ("s", "lower"),
    "net.fabric.frames": ("count", "higher"),
    "net.fabric.forwarded": ("count", "higher"),
    "net.fabric.dropped": ("count", "lower"),
    "sim.sync.windows": ("count", "lower"),
    "sim.sync.window_us.p50": ("us", "lower"),
    "sim.sync.window_us.p99": ("us", "lower"),
    "sim.sync.frames_per_window": ("count", "higher"),
    "cluster.coordinator_s": ("s", "lower"),
    "cluster.host_imbalance": ("ratio", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.unattributed_s": ("s", "lower"),
}


def targets() -> List[Target]:
    """Resolve :data:`_TARGETS` to ``(class, method, span name)``."""
    import importlib
    out: List[Target] = []
    for module, cls_name, methods, group in _TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        out.extend((cls, method, f"{group}:{cls_name}.{method}")
                   for method in methods)
    return out


def group_of(name: str) -> str:
    """``devices.rx:Igb82576Port.wire_receive`` -> ``devices.rx``."""
    return name.split(":", 1)[0]


def layer_of(name: str) -> str:
    """``devices.rx:Igb82576Port.wire_receive`` -> ``devices``."""
    return name.split(".", 1)[0].split(":", 1)[0]


def _method_of(name: str) -> str:
    """``cluster.host:InProcessHost.advance_begin#1`` -> the name
    without its per-instance suffix."""
    return name.split("#", 1)[0]


def _calls(recorder: SpanRecorder, method: str) -> int:
    """All spans of one ``group:method`` name, nested ones included."""
    ids = {i for i, name in enumerate(recorder.names)
           if _method_of(name) == method}
    return sum(1 for n in recorder.name_of if n in ids)


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(recorder: SpanRecorder, result, wall_s: float
                  ) -> Dict[str, float]:
    """Every per-layer metric of one traced execution (``trace.*``
    overhead excepted: it needs the untraced runs)."""
    out: Dict[str, float] = {name: 0.0 for name in METRICS}
    for group, seconds_self in recorder.self_by(group_of).items():
        out[f"{layer_of(group)}.self_s"] += seconds_self
        if group == "sim.engine":
            out["sim.engine.self_s"] = seconds_self
    inclusive = recorder.outermost(group_of)

    def seconds(group: str) -> float:
        return inclusive.get(group, (0.0, 0))[0]

    for metric, group in (
            ("core.testbed.setup_s", "core.testbed.setup"),
            ("hw.dma.program_s", "hw.dma.program"),
            ("devices.rx_s", "devices.rx"),
            ("devices.tx_s", "devices.tx"),
            ("hw.dma.ring_s", "hw.dma.ring"),
            ("drivers.napi.poll_s", "drivers.napi.poll"),
            ("drivers.guest_app.deliver_s", "drivers.guest_app.deliver"),
            ("vmm.deliver_msi_s", "vmm.deliver_msi"),
            ("vmm.grant_table.copy_s", "vmm.grant_table.copy"),
            ("drivers.netback.deliver_s", "drivers.netback.deliver"),
            ("drivers.netfront.receive_s", "drivers.netfront.receive"),
            ("net.packet.acquire_s", "net.packet.acquire"),
            ("net.link.transmit_s", "net.link.transmit"),
            ("sim.fluid.settle_s", "sim.fluid.settle"),
            ("core.host.advance_s", "core.host.advance"),
            ("net.fabric.route_s", "net.fabric.route"),
            ("cluster.coordinator_s", "cluster.coordinator")):
        out[metric] = seconds(group)
    out["devices.rx_bursts"] = _calls(recorder,
                                      "devices.rx:_NetFunction.device_receive")
    out["vmm.vlapic.injects"] = _calls(recorder,
                                       "vmm.vlapic.inject:VirtualLapic.inject")
    out["sim.fluid_host.arrivals"] = _calls(
        recorder, "sim.fluid_host.arrival:FluidHostFlow.accept_arrival")
    out["trace.unattributed_s"] = max(
        0.0, wall_s - recorder.top_level_seconds())

    beds = recorder.instances.get("core.testbed.setup:Testbed.__init__", [])
    _public_counts(out, beds)
    rx_packets = sum(function.rx_packets for bed in beds
                     for port in bed.ports
                     for function in [port.pf, *port.vfs])
    if rx_packets:
        out["devices.ns_per_packet"] = out["devices.rx_s"] / rx_packets * 1e9
    if out["sim.engine.events"]:
        out["sim.engine.ns_per_event"] = (
            out["sim.engine.self_s"] / out["sim.engine.events"] * 1e9)
    for kind, count in result.exit_counts.items():
        if f"vmm.exits.{kind}" in out:
            out[f"vmm.exits.{kind}"] = count

    fluid = result.fluid
    if fluid is not None:
        collapsed = fluid["collapsed_events"]
        total = collapsed + fluid["events_executed"]
        out["sim.fluid.collapsed_events"] = collapsed
        out["sim.fluid.collapsed_frac"] = collapsed / total if total else 0.0
        rejections = fluid["rejections"]
        out["sim.fluid.rejected"] = sum(rejections.values())
        out["sim.fluid.rejected.tracer"] = rejections.get("tracer", 0)
        attempts = inclusive.get("sim.fluid.attach", (0.0, 0))[1]
        if attempts:
            out["sim.fluid.attach_ratio"] = fluid["flows"] / attempts

    cluster = result.extras.get("cluster")
    if cluster is not None:
        fabric = cluster["fabric"]
        out["net.fabric.frames"] = fabric["offered"]
        out["net.fabric.forwarded"] = fabric["forwarded"]
        out["net.fabric.dropped"] = fabric["dropped"]
        windows = recorder.starts_of(
            "sim.sync:LockstepBarrier.next_window")
        out["sim.sync.windows"] = len(windows)
        gaps = [(b - a) * 1e6 for a, b in zip(windows, windows[1:])]
        out["sim.sync.window_us.p50"] = _percentile(gaps, 50)
        out["sim.sync.window_us.p99"] = _percentile(gaps, 99)
        if windows:
            # Both counted over the whole run; the fabric counters above
            # cover the measurement window only.
            out["sim.sync.frames_per_window"] = _calls(
                recorder, "net.fabric.route:ToRSwitch.route") / len(windows)
        per_host = [seconds for seconds, _count in
                    recorder.outermost(_host_of).values()]
        if per_host:
            mean = sum(per_host) / len(per_host)
            out["cluster.host_imbalance"] = (max(per_host) / mean
                                             if mean else 0.0)
    return out


def _host_of(name: str) -> Optional[str]:
    """``cluster.host:InProcessHost.advance_begin#1`` -> ``1``: the
    cluster host runner a window-step span belongs to."""
    if name.startswith("cluster.host:"):
        return name.rsplit("#", 1)[-1]
    return None


def _public_counts(out: Dict[str, float], beds) -> None:
    """Deterministic counts read from the testbeds after the run."""
    for bed in beds:
        out["sim.engine.events"] += bed.sim.events_executed
        out["net.packet.acquired"] += bed.packet_pool.acquired
        platform = bed.platform
        out["hw.iommu.translations"] += platform.iommu.translations
        channels = getattr(platform, "event_channels", None)
        if channels is not None:
            out["vmm.event_channel.notifies"] += channels.notifications
        for port in bed.ports:
            for function in [port.pf, *port.vfs]:
                out["hw.msi.raised"] += function.msix.interrupts_posted
        for guest in bed.sriov_guests:
            out["drivers.napi.polls"] += guest.driver.napi.polls
            out["drivers.napi.pkts_per_poll"] += guest.driver.napi.packets
        for guest in bed.pv_guests:
            out["vmm.grant_table.copies"] += guest.netfront.grant_table.copies
        if bed.pv_guests:
            out["drivers.netback.dropped"] += bed.netback.dropped_packets
    if out["drivers.napi.polls"]:
        out["drivers.napi.pkts_per_poll"] /= out["drivers.napi.polls"]
