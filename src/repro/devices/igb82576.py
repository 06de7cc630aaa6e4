"""The Intel 82576 Gigabit Ethernet controller, one port.

This is the SR-IOV-capable NIC of the paper's testbed (§6.1): each port
exposes one Physical Function and up to 8 Virtual Functions (7 enabled
in the paper so the PF keeps a queue pair for the service domain).  The
model is register-level where the architecture depends on it:

* the PF carries a full config space with MSI-X and the SR-IOV extended
  capability; VFs carry trimmed spaces that do not answer bus scans;
* each function owns an RX descriptor ring ("performance critical
  resources ... duplicated per VF", §4.1) and an interrupt-throttle
  (ITR) register; transmit DMA is booked on the PCIe data path
  (:meth:`Igb82576Port.route_transmit`), not through a TX ring;
* the on-chip L2 switch classifies by (MAC, VLAN) and loops inter-VF
  traffic internally — each internal packet costs *two* crossings of the
  PCIe data path, which is what caps inter-VM throughput (§6.3);
* a mailbox+doorbell channel links each VF to the PF (§4.2);
* every DMA the device performs is translated through the IOMMU with
  the owning function's requester ID.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.devices.l2switch import L2Switch, SwitchTarget
from repro.devices.mailbox import Mailbox
from repro.hw.dma import DescriptorRing
from repro.hw.iommu import Iommu
from repro.hw.msi import MsiMessage, MsixCapability
from repro.hw.pcie.config_space import CAP_ID_MSIX, ConfigSpace
from repro.hw.pcie.datapath import PcieDataPath
from repro.hw.pcie.sriov_cap import SriovCapability
from repro.hw.pcie.topology import PciFunction
from repro.net.link import Link
from repro.net.mac import MacAddress
from repro.net.packet import Packet
from repro.sim.engine import EventHandle, Simulator

INTEL_VENDOR_ID = 0x8086
IGB_PF_DEVICE_ID = 0x10C9
IGB_VF_DEVICE_ID = 0x10CA

#: The 82576 exposes 8 VFs per port; the paper enables 7 (§6.1, Fig. 11).
TOTAL_VFS_PER_PORT = 8

#: Default ring sizes: the paper's dd_bufs (§5.3).
DEFAULT_RING_SIZE = 1024
RX_BUFFER_BYTES = 2048

#: Per-function MSI-X vectors: rx/tx combined + mailbox.
VECTOR_RXTX = 0
VECTOR_MAILBOX = 1
MSIX_TABLE_SIZE = 3

#: TX backlog bound: beyond this much booked DMA time the device drops
#: (hardware would assert flow control / overflow its FIFO).
TX_BACKLOG_LIMIT = 2e-3

#: Default ITR: the VF driver ships with 2 kHz moderation (§5.3).
DEFAULT_ITR_INTERVAL = 1 / 2000


class InterruptThrottle:
    """The ITR register: enforces a minimum inter-interrupt interval.

    ``request`` is called per received packet; the throttle fires the
    supplied callback immediately if the interval has elapsed, otherwise
    schedules a single deferred firing — exactly one interrupt per ITR
    window regardless of packet count ("a single guest interrupt may
    handle multiple incoming packets", §4.1).
    """

    def __init__(self, sim: Simulator, fire: Callable[[], None],
                 interval: float = DEFAULT_ITR_INTERVAL):
        if interval < 0:
            raise ValueError("ITR interval must be non-negative")
        self.sim = sim
        self._fire = fire
        self.interval = interval
        self._last_fired = -float("inf")
        self._pending: Optional[EventHandle] = None
        self.fired = 0

    def set_interval(self, interval: float) -> None:
        """Reprogram the throttle (the AIC policy calls this)."""
        if interval < 0:
            raise ValueError("ITR interval must be non-negative")
        self.interval = interval

    def request(self) -> None:
        """A cause for interrupt exists (packet landed, ring event)."""
        if self._pending is not None:
            return
        due = self._last_fired + self.interval
        if self.sim.now >= due:
            self._do_fire()
        else:
            self._pending = self.sim.schedule_at(due, self._do_fire)

    def cancel(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _do_fire(self) -> None:
        self._pending = None
        self._last_fired = self.sim.now
        self.fired += 1
        self._fire()


class _NetFunction:
    """Data-movement state shared by the PF and each VF."""

    def __init__(self, sim: Simulator, port: "Igb82576Port", name: str,
                 function_index: int, pci: PciFunction):
        self.sim = sim
        self.port = port
        self.name = name
        self.function_index = function_index
        self.pci = pci
        self.rx_ring = DescriptorRing(DEFAULT_RING_SIZE, f"{name}.rx")
        self.msix = MsixCapability(MSIX_TABLE_SIZE, self._post_msi)
        self.throttle = InterruptThrottle(sim, self._raise_rxtx)
        #: §4.3 policy knobs, set by the PF driver.  ``tx_rate_limit_bps``
        #: is the device's per-pool transmit rate limiter; 0 = unlimited.
        self.tx_rate_limit_bps: float = 0.0
        self._tx_tokens: float = 0.0
        self._tx_tokens_at: float = 0.0
        self.tx_rate_limited_drops = 0
        #: §4.3 interrupt-throttling floor: the longest interrupt rate
        #: the PF allows this function to request.  Guest writes to the
        #: throttle below this interval are clamped.  0 = no floor.
        self.itr_floor_interval: float = 0.0
        self.mac: Optional[MacAddress] = None
        self.enabled = False
        #: Installed by the fluid datapath (repro.sim.fluid): a
        #: collapsed flow's ``settle_strict``, called before every ITR
        #: register write lands so the open window replays under the
        #: outgoing interval.
        self.fluid_listener = None
        # Statistics.  Conservation law (audited): every offered packet
        # is accounted exactly once — rx_offered == rx_packets +
        # rx_no_desc_drops + rx_dma_faults + rx_corrupt_drops.
        self.rx_offered = 0
        self.rx_packets = 0
        self.rx_bytes = 0
        self.rx_no_desc_drops = 0
        self.rx_dma_faults = 0
        self.rx_corrupt_drops = 0
        self.tx_packets = 0
        self.tx_bytes = 0
        self.tx_spoof_drops = 0
        self.tx_backlog_drops = 0

    # ------------------------------------------------------------------
    # interrupt plumbing
    # ------------------------------------------------------------------
    def _post_msi(self, message: MsiMessage) -> None:
        self.port.deliver_interrupt(self, message)

    def _raise_rxtx(self) -> None:
        self.msix.raise_vector(VECTOR_RXTX)

    def raise_mailbox_interrupt(self) -> None:
        self.msix.raise_vector(VECTOR_MAILBOX)

    # ------------------------------------------------------------------
    # receive side (device fills driver-posted descriptors)
    # ------------------------------------------------------------------
    def device_receive(self, burst: List[Packet]) -> int:
        """DMA a burst into this function's RX ring; returns accepted."""
        offered = len(burst)
        if not self.enabled:
            self.account_rx(offered, 0, 0, no_desc=offered)
            return 0
        if not burst:
            return 0
        port = self.port
        corrupt = 0
        if port.rx_corrupt_budget > 0:
            # Injected DMA/descriptor corruption: the leading writes land
            # with a bad checksum; those frames are dropped and counted
            # exactly as on an error-status descriptor.
            corrupt = min(port.rx_corrupt_budget, offered)
            port.rx_corrupt_budget -= corrupt
            port.rx_corrupted += corrupt
            burst = burst[corrupt:]
        # Burst fast path: the IOMMU context is resolved once, ring state
        # and translation tables are locals, and statistics land as one
        # batched update per burst.  Counter totals and per-packet
        # accept/drop decisions match walking the burst one by one.
        ring = self.rx_ring
        buffer_addr = ring.buffer_addr
        done = ring.done
        packets = ring.packets
        mask = ring._mask
        head = ring.head
        tail = ring.tail
        iommu = port.iommu
        lookup = None
        no_context = False
        if iommu is not None:
            table = iommu._contexts.get(self._rid())
            if table is None:
                no_context = True
            else:
                lookup = table._entries.get
        accepted = 0
        rx_bytes = 0
        no_desc = 0
        faults = 0
        for packet in burst:
            if head == tail:
                no_desc += 1
                continue
            if no_context:
                faults += 1
                continue
            if lookup is not None:
                entry = lookup(buffer_addr[head] >> 12)
                if entry is None or not entry[1]:
                    faults += 1
                    continue
            done[head] = 1
            packets[head] = packet
            head = (head + 1) & mask
            accepted += 1
            rx_bytes += packet.size_bytes
        ring.head = head
        self.account_rx(offered, accepted, rx_bytes, no_desc, faults,
                        corrupt)
        if accepted:
            self.throttle.request()
        return accepted

    def account_rx(self, offered: int, accepted: int, rx_bytes: int,
                   no_desc: int = 0, faults: int = 0,
                   corrupt: int = 0) -> None:
        """Receive statistics for ``offered`` packets: ``accepted`` of
        them (``rx_bytes`` in all) written into the ring, the rest
        dropped for want of a descriptor, on an IOMMU fault or as
        corrupted.  Booked per burst, or per collapsed window by the
        fluid datapath."""
        self.rx_offered += offered
        self.rx_packets += accepted
        self.rx_bytes += rx_bytes
        self.rx_ring.completed += accepted
        if no_desc:
            self.rx_no_desc_drops += no_desc
        if corrupt:
            self.rx_corrupt_drops += corrupt
        iommu = self.port.iommu
        if faults:
            self.rx_dma_faults += faults
            iommu.faults += faults
        if iommu is not None:
            iommu.translations += accepted

    # ------------------------------------------------------------------
    # transmit side (device drains driver-posted descriptors)
    # ------------------------------------------------------------------
    def hw_transmit(self, burst: List[Packet]) -> int:
        """Transmit a burst out of this function; returns accepted count.

        Applies anti-spoofing, books the PCIe DMA crossings, and routes
        each packet through the internal switch or out the wire.
        """
        if not self.enabled:
            return 0
        sent = sent_bytes = backlog_drops = 0
        for packet in burst:
            if not self.port.switch.check_transmit(self.function_index, packet):
                self.tx_spoof_drops += 1
                continue
            if not self._tx_rate_allows(packet.size_bytes):
                self.tx_rate_limited_drops += 1
                continue
            if not self.port.route_transmit(self, packet):
                backlog_drops += 1
                continue
            sent += 1
            sent_bytes += packet.size_bytes
        self.account_tx(sent, sent_bytes, backlog_drops)
        return sent

    def account_tx(self, sent: int, sent_bytes: int,
                   backlog_drops: int) -> None:
        """Transmit statistics: ``sent`` packets (``sent_bytes`` in all)
        handed to the wire or the internal switch, ``backlog_drops``
        refused by it.  Booked per burst, or per tick by the fluid
        datapath."""
        self.tx_packets += sent
        self.tx_bytes += sent_bytes
        self.tx_backlog_drops += backlog_drops

    def _tx_rate_allows(self, size_bytes: int) -> bool:
        """The per-pool transmit rate limiter (a token bucket refilled
        at the programmed rate, one second of burst depth)."""
        limit = self.tx_rate_limit_bps
        if limit <= 0:
            return True
        now = self.sim.now
        self._tx_tokens = min(
            limit,  # bucket depth: one second's worth of bits
            self._tx_tokens + (now - self._tx_tokens_at) * limit)
        self._tx_tokens_at = now
        bits = size_bytes * 8
        if self._tx_tokens < bits:
            return False
        self._tx_tokens -= bits
        return True

    def _rid(self) -> int:
        if self.pci.rid is None:
            raise RuntimeError(f"{self.name} transmitting before RID assignment")
        return self.pci.rid

    def reset(self) -> None:
        """Function-level reset: ring cleared, interrupts quiesced."""
        self.rx_ring.reset()
        self.throttle.cancel()
        self.enabled = False


class VirtualFunction(_NetFunction):
    """A VF: trimmed config space, dedicated RX ring, mailbox to the PF."""

    def __init__(self, sim: Simulator, port: "Igb82576Port", index: int):
        config = ConfigSpace(INTEL_VENDOR_ID, IGB_VF_DEVICE_ID)
        config.add_capability(CAP_ID_MSIX, 12)
        pci = PciFunction(config, responds_to_scan=False,
                          name=f"{port.name}.vf{index}")
        super().__init__(sim, port, f"{port.name}.vf{index}", index, pci)
        self.index = index
        self.mailbox = Mailbox(index)
        from repro.devices.igb_regs import build_vf_registers
        #: The VF BAR's register file (VTCTRL, VTEITR...).
        self.regs = build_vf_registers(self)


class PhysicalFunction(_NetFunction):
    """The PF: full config space with the SR-IOV extended capability."""

    def __init__(self, sim: Simulator, port: "Igb82576Port"):
        config = ConfigSpace(INTEL_VENDOR_ID, IGB_PF_DEVICE_ID)
        config.add_capability(CAP_ID_MSIX, 12)
        pci = PciFunction(config, responds_to_scan=True, name=f"{port.name}.pf")
        super().__init__(sim, port, f"{port.name}.pf", SwitchTarget.PF, pci)
        self.sriov = SriovCapability(config, total_vfs=TOTAL_VFS_PER_PORT,
                                     vf_device_id=IGB_VF_DEVICE_ID)
        self.enabled = True  # the PF is alive as soon as the port exists


class Igb82576Port:
    """One 1 GbE port of an 82576: PF + VFs + switch + wire."""

    LINE_RATE_BPS = 1e9
    #: Receive-address table entries in the PF register map.
    RECEIVE_ADDRESS_ENTRIES = 16

    def __init__(
        self,
        sim: Simulator,
        index: int = 0,
        iommu: Optional[Iommu] = None,
        datapath: Optional[PcieDataPath] = None,
        name: str = "",
    ):
        self.sim = sim
        self.index = index
        self.name = name or f"igb{index}"
        self.iommu = iommu
        self.datapath = datapath if datapath is not None else PcieDataPath(
            sim, name=f"{self.name}.dma")
        self.switch = L2Switch(f"{self.name}.switch")
        self.link_up = True
        self.pf = PhysicalFunction(sim, self)
        from repro.devices.igb_regs import build_pf_registers
        #: The PF BAR0 register file (CTRL/STATUS/RCTL/RAL/RAH/EITR...).
        self.regs = build_pf_registers(self, self.RECEIVE_ADDRESS_ENTRIES)
        self.vfs: List[VirtualFunction] = []
        self.uplink: Optional[Link] = None
        self._classify_cache: dict = {}
        self._classify_generation = -1
        #: Set by the platform/hypervisor: (function, MsiMessage) sink.
        self.interrupt_sink: Optional[Callable[["_NetFunction", MsiMessage], None]] = None
        self.wire_rx_packets = 0
        self.wire_tx_packets = 0
        self.internal_loopback_packets = 0
        #: Installed by the cluster fluid datapath: the collapsed
        #: transmit flow staging this port's uplink egress.  Inbound
        #: wire traffic must settle it first — its lazy DMA bookings
        #: and the ingress booking share the pipe's busy horizon.
        self._fluid_tx = None
        #: Fault injection: the next N RX DMA writes on this port land
        #: corrupted (bad checksum in the descriptor status); counted
        #: per port and dropped by the receiving function.
        self.rx_corrupt_budget = 0
        self.rx_corrupted = 0

    # ------------------------------------------------------------------
    # VF lifecycle (driven by the PF driver through the SR-IOV cap)
    # ------------------------------------------------------------------
    def enable_vfs(self, count: int) -> List[VirtualFunction]:
        """Program NumVFs + VF Enable; materializes the VF functions.

        RIDs follow the capability's offset/stride arithmetic from the
        PF's own RID (which must be assigned, i.e. the PF attached to a
        root complex, first).
        """
        if self.vfs:
            raise RuntimeError("VFs already enabled on this port")
        pf_rid = self.pf.pci.rid
        if pf_rid is None:
            raise RuntimeError("attach the PF to a root complex before enabling VFs")
        self.pf.sriov.num_vfs = count
        self.pf.sriov.enable_vfs()
        for i in range(count):
            vf = VirtualFunction(self.sim, self, i)
            vf.pci.rid = self.pf.sriov.vf_rid(pf_rid, i)
            self.vfs.append(vf)
        return list(self.vfs)

    def disable_vfs(self) -> None:
        for vf in self.vfs:
            vf.reset()
        self.vfs.clear()
        self.pf.sriov.disable_vfs()

    def vf(self, index: int) -> VirtualFunction:
        return self.vfs[index]

    # ------------------------------------------------------------------
    # wire side
    # ------------------------------------------------------------------
    def attach_uplink(self, link: Link) -> None:
        """Connect the TX direction of the wire."""
        self.uplink = link

    def wire_receive(self, burst: List[Packet]) -> None:
        """Packets arriving from the physical line.

        Classification results are cached per (dst, vlan) against the
        switch's programming generation — the wire-rate fast path of
        this model, like the real switch's CAM.
        """
        fluid_tx = self._fluid_tx
        if fluid_tx is not None:
            fluid_tx.settle_strict()
        self.wire_rx_packets += len(burst)
        if self._classify_generation != self.switch.generation:
            self._classify_cache.clear()
            self._classify_generation = self.switch.generation
        cache = self._classify_cache
        by_function: dict = {}
        # Targets are resolved once per run of equal (dst, vlan) keys.
        # A netperf burst is one flow — and reuses one MacAddress object
        # per stream — so run detection is an identity check and the
        # per-packet work collapses to one bound append (the dominant
        # single-destination case) into already-resolved lists.
        run_dst = None
        run_vlan = None
        run_lists: list = []
        run_append = None
        for packet in burst:
            dst = packet.dst
            vlan = packet.vlan
            if dst is not run_dst or vlan != run_vlan:
                run_dst = dst
                run_vlan = vlan
                key = (dst, vlan)
                targets = cache.get(key)
                if targets is None:
                    targets = self.switch.classify(packet)
                    cache[key] = targets
                run_lists = []
                for target in targets:
                    if target.is_uplink:
                        continue  # came from the wire; nothing local wants it
                    function = self._function_for(target)
                    if function is not None:
                        entry = by_function.get(id(function))
                        if entry is None:
                            entry = (function, [])
                            by_function[id(function)] = entry
                        run_lists.append(entry[1])
                run_append = (run_lists[0].append
                              if len(run_lists) == 1 else None)
            if run_append is not None:
                run_append(packet)
            else:
                for packets in run_lists:
                    packets.append(packet)
        for function, packets in by_function.values():
            # One DMA crossing host-ward per packet, booked as a batch.
            self.datapath.transfer(sum(p.size_bytes for p in packets))
            function.device_receive(packets)

    # ------------------------------------------------------------------
    # transmit routing
    # ------------------------------------------------------------------
    def route_transmit(self, source: "_NetFunction", packet: Packet) -> bool:
        """Route one TX packet: internal loopback or out the wire.

        Returns False when the PCIe data path is too backlogged (the
        hardware-FIFO-full condition that caps inter-VM throughput).
        """
        if self.datapath.backlog_seconds > TX_BACKLOG_LIMIT:
            return False
        if self.switch.is_local(packet.dst, packet.vlan):
            targets = self.switch.classify(packet)
            # Internal: DMA down (TX read) and up (RX write) — 2 crossings.
            self.internal_loopback_packets += 1
            for target in targets:
                function = self._function_for(target)
                if function is None or function is source:
                    continue
                self.datapath.transfer(
                    2 * packet.size_bytes,
                    self._deliver_internal(function, packet),
                )
            return True
        # Out the wire: one DMA crossing, then line serialization.
        self.datapath.transfer(packet.size_bytes)
        self.wire_tx_packets += 1
        if self.uplink is not None:
            return self.uplink.transmit(packet)
        return True

    def _deliver_internal(self, function: "_NetFunction", packet: Packet):
        def deliver() -> None:
            function.device_receive([packet])
        return deliver

    # ------------------------------------------------------------------
    # interrupts
    # ------------------------------------------------------------------
    def deliver_interrupt(self, function: "_NetFunction",
                          message: MsiMessage) -> None:
        if self.interrupt_sink is None:
            raise RuntimeError(
                f"{self.name}: MSI raised but no interrupt sink installed"
            )
        self.interrupt_sink(function, message)

    # ------------------------------------------------------------------
    def _function_for(self, target: SwitchTarget) -> Optional["_NetFunction"]:
        if target.is_pf:
            return self.pf
        if target.is_uplink:
            return None
        if 0 <= target.function_index < len(self.vfs):
            return self.vfs[target.function_index]
        return None
