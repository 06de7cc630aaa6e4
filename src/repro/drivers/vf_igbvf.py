"""The VF (igbvf) driver: the guest side of the SR-IOV architecture.

"The VF driver runs on the guest OS as a normal PCIe device driver and
accesses its dedicated VF directly, for performance data movement,
without involving VMM" (§4.1).  Its interrupt path is the paper's
critical path, and every §5 overhead lives here:

1. the physical MSI arrives; the hypervisor injects a virtual interrupt
   (cost charged in :class:`~repro.vmm.hypervisor.Xen.deliver_msi`);
2. a Linux 2.6.18 guest masks the vector — an MMIO trap (§5.1);
3. the handler NAPI-polls the RX ring, refills descriptors and hands the
   batch to the netserver application;
4. the guest writes EOI — an APIC-access exit for HVM (§5.2);
5. a 2.6.18 guest unmasks the vector — another trap.

The driver also programs the ITR from its coalescing policy, re-sampled
once a second against measured pps (the AIC loop of §5.3), and speaks
the §4.2 mailbox protocol to the PF driver.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.devices.igb82576 import (
    RX_BUFFER_BYTES,
    VECTOR_MAILBOX,
    VECTOR_RXTX,
    VirtualFunction,
)
from repro.devices.mailbox import Mailbox, MailboxMessage, MailboxRetrier
from repro.drivers.coalescing import CoalescingPolicy, FixedItr
from repro.drivers.guest_app import NetserverApp
from repro.drivers.napi import NapiContext
from repro.hw.msi import MsiMessage
from repro.net.packet import Packet
from repro.sim.engine import EventHandle
from repro.sim.stats import RateMeter
from repro.vmm.domain import Domain

#: x86 MSI address targeting the local APIC.
MSI_ADDRESS = 0xFEE00000

#: Guest-physical base where the driver maps its RX buffer pool.
RX_POOL_BASE = 0x10_0000


class VfDriver:
    """One guest's igbvf instance bound to its assigned VF."""

    def __init__(
        self,
        platform,
        domain: Domain,
        vf: VirtualFunction,
        policy: Optional[CoalescingPolicy] = None,
        app: Optional[NetserverApp] = None,
        name: str = "",
    ):
        """``platform`` is a Xen or NativeHost; ``domain`` the driver's
        context (a guest under Xen, a host context natively)."""
        self.platform = platform
        self.sim = platform.sim
        self.costs = platform.costs
        self.domain = domain
        self.vf = vf
        self.policy = policy or FixedItr(2000)
        self.app = app or NetserverApp(platform.costs)
        self.name = name or f"igbvf.{vf.name}"
        self.napi = NapiContext()
        self.rx_meter = RateMeter(f"{self.name}.pps")
        self.rx_vector: Optional[int] = None
        self.mbx_vector: Optional[int] = None
        self.running = False
        #: Physical link state as last reported by the PF (§4.2).
        self.carrier = True
        #: Invoked with the new carrier state (the bond's MII monitor).
        self.on_carrier_change: Optional[callable] = None
        self.interrupts_handled = 0
        self.resets_handled = 0
        self.link_events: List[str] = []
        #: Sender-side retry protection for VF -> PF requests (§4.2's
        #: doorbell can be lost under fault injection).
        self.pf_retrier = MailboxRetrier(self.sim, vf.mailbox, Mailbox.VF)
        self._sample_handle: Optional[EventHandle] = None
        #: Installed by :class:`repro.sim.fluid.FluidFlow` when this
        #: driver's stream rides the collapsed-window fast path.
        self._fluid = None
        # Registry instruments (no-ops when telemetry is off).
        scope = platform.metrics.scope(f"guest.{domain.name}")
        self._m_interrupts = scope.counter("interrupts")
        self._m_rx_pkts = scope.counter("rx_pkts")
        self._m_batch = scope.histogram("rx_batch", bin_width=1.0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Probe: map the device's guest address space, bind MSI-X
        vectors, fill the RX ring, enable the VF, program the ITR."""
        if self.running:
            return
        self._map_rx_pool()
        rid = self.vf.pci.rid
        self.rx_vector = self.platform.bind_guest_msi(self.domain, self._isr,
                                                      source_rid=rid)
        self.mbx_vector = self.platform.bind_guest_msi(
            self.domain, self._mailbox_isr, source_rid=rid)
        self.vf.msix.configure(VECTOR_RXTX, MsiMessage(MSI_ADDRESS, self.rx_vector))
        self.vf.msix.configure(VECTOR_MAILBOX, MsiMessage(MSI_ADDRESS, self.mbx_vector))
        self.vf.msix.unmask(VECTOR_RXTX)
        self.vf.msix.unmask(VECTOR_MAILBOX)
        self.vf.mailbox.connect(Mailbox.VF, self._mailbox_message)
        # Program every slot's buffer once; steady-state refills
        # (rearm_until_full) then only move ownership.
        self.vf.rx_ring.program_buffers(RX_POOL_BASE, 4096, RX_BUFFER_BYTES)
        self._refill_rx_ring()
        self._program_itr(self.policy.initial_interval())
        self.vf.enabled = True
        self.running = True
        self.rx_meter.reset(self.sim.now)
        self._sample_handle = self.sim.schedule(self.policy.sample_period,
                                                self._sample_tick)

    def stop(self) -> None:
        """Driver removal (module unload or virtual hot-unplug): quiesce
        interrupts, disable the VF, release vectors."""
        if not self.running:
            return
        if self._fluid is not None:
            # Materialize pending fluid state before the ring resets.
            self._fluid.decollapse()
        self.running = False
        self.vf.enabled = False
        self.vf.throttle.cancel()
        if self._sample_handle is not None:
            self._sample_handle.cancel()
            self._sample_handle = None
        rid = self.vf.pci.rid
        if self.rx_vector is not None:
            self.platform.unbind_guest_msi(self.rx_vector, source_rid=rid)
        if self.mbx_vector is not None:
            self.platform.unbind_guest_msi(self.mbx_vector, source_rid=rid)
        self.vf.rx_ring.reset()

    # ------------------------------------------------------------------
    # transmit (inter-VM experiments and TX workloads)
    # ------------------------------------------------------------------
    def transmit(self, burst: List[Packet]) -> int:
        """Hand a burst to the device's transmit path (its DMA is booked
        on the PCIe data path)."""
        if not self.running:
            return 0
        self.domain.charge_guest(self.costs.guest_cycles_per_packet * len(burst))
        return self.vf.hw_transmit(burst)

    # ------------------------------------------------------------------
    # the interrupt path
    # ------------------------------------------------------------------
    def _isr(self, vector: int) -> None:
        # While a flow is collapsed (self._fluid active) this handler
        # never runs — the fluid fast path replays the whole interrupt
        # arithmetically (see repro.sim.fluid).  A real fire only lands
        # here in exact mode or after a decollapse, and then the exact
        # path reaps whatever packets were materialized into the ring.
        trace = self.platform.trace
        trace.begin("irq", "vf_isr", domain=self.domain.id,
                    driver=self.name)
        hvm_under_xen = self.domain.is_hvm and not self.platform.is_native
        masks_msi = (hvm_under_xen
                     and self.domain.kernel.masks_msi_per_interrupt)
        if masks_msi:
            # 2.6.18 masks the vector at the top of the handler (§5.1).
            self.platform.device_model(self.domain).emulate_msix_mask_write(True)
        ring = self.vf.rx_ring
        packets = self.napi.poll_all(ring)
        # Steady-state refill: buffers were programmed at probe time
        # and the slot-to-buffer mapping is fixed, so only ownership
        # moves.
        ring.rearm_until_full()
        batch = len(packets)
        accepted = 0
        if packets:
            accepted, _dropped = self.app.deliver(packets, self.sim.now)
        self.account_isr((batch,), accepted)
        if hvm_under_xen:
            self.platform.vlapic(self.domain).eoi_write()
        if masks_msi:
            self.platform.device_model(self.domain).emulate_msix_mask_write(False)
        trace.end("irq", "vf_isr", domain=self.domain.id,
                  packets=batch)

    def account_isr(self, batches: Sequence[int], accepted: int) -> None:
        """The handler's books for ``len(batches)`` interrupts that
        drained ``batches[i]`` packets each, ``accepted`` of which the
        app took: counters, meters and the guest's cycles."""
        interrupts = len(batches)
        packets = sum(batches)
        self.interrupts_handled += interrupts
        self._m_interrupts.value += interrupts
        costs = self.costs
        domain = self.domain
        domain.charge_guest(costs.guest_cycles_per_interrupt * interrupts)
        if packets:
            self.rx_meter.add(packets)
            self._m_rx_pkts.value += packets
            m_batch = self._m_batch
            for count in batches:
                if count:
                    m_batch.add(count)
            cycles = costs.guest_cycles_per_packet
            if domain.is_pvm:
                cycles += costs.pvm_syscall_surcharge_per_packet
            domain.charge_guest(cycles * accepted)

    def _mailbox_isr(self, vector: int) -> None:
        """Doorbell from the PF arrived; message already consumed by
        :meth:`_mailbox_message` (the model delivers synchronously)."""
        if self.domain.is_hvm and not self.platform.is_native:
            self.platform.vlapic(self.domain).eoi_write()

    def _mailbox_message(self, message: MailboxMessage) -> None:
        """PF-to-VF events (§4.2): "impending global device reset, link
        status change, and impending driver removal"."""
        self.link_events.append(message.kind)
        self.vf.mailbox.acknowledge(Mailbox.VF)
        self.vf.raise_mailbox_interrupt()
        if message.kind == "reset":
            self._handle_device_reset(message.body or {})
        elif message.kind == "link_change":
            self._handle_link_change(bool((message.body or {}).get("up", True)))
        elif message.kind == "driver_removal":
            # The PF driver is going away: quiesce until it returns.
            self.stop()

    def _handle_device_reset(self, body: dict) -> None:
        """Quiesce for the global reset, re-initialize when it ends.

        The device drops everything in flight; the driver re-posts its
        rings and re-enables once the reset window passes.
        """
        self.resets_handled += 1
        if not self.running:
            return
        if self._fluid is not None:
            # Pending collapsed packets must land in the real ring so
            # the reset drops them exactly as it would have.
            self._fluid.decollapse()
        self.vf.enabled = False
        self.vf.throttle.cancel()
        self.vf.rx_ring.reset()
        duration = float(body.get("duration", 0.01))

        def reinitialize() -> None:
            if not self.running:
                return
            self._refill_rx_ring()
            self.vf.enabled = True

        self.sim.schedule(duration, reinitialize)

    def _handle_link_change(self, up: bool) -> None:
        if up == self.carrier:
            return
        self.carrier = up
        if self.on_carrier_change is not None:
            self.on_carrier_change(up)

    # ------------------------------------------------------------------
    # PF requests (guest -> PF driver, over the mailbox)
    # ------------------------------------------------------------------
    def request_multicast(self, addresses: List) -> None:
        """Ask the PF driver to program our multicast list (§4.2).

        ``addresses`` are :class:`~repro.net.mac.MacAddress` group
        addresses; the full list replaces the previous one, as with
        the real mailbox protocol's MC list message.
        """
        payload = tuple(a.value & 0xFFFFFFFF for a in addresses[:16])
        self.pf_retrier.send(MailboxMessage(
            "set_multicast", payload=payload, body=list(addresses)))

    def request_vlan(self, vlan: int) -> None:
        self.pf_retrier.send(MailboxMessage(
            "set_vlan", payload=(vlan,), body=vlan))

    # ------------------------------------------------------------------
    # coalescing feedback loop (§5.3)
    # ------------------------------------------------------------------
    def _sample_tick(self) -> None:
        if not self.running:
            return
        if self._fluid is not None:
            # This handle was scheduled a full sample period ago, so it
            # runs before any same-time tick or fire: replay the
            # collapsed flow strictly up to now before reading the
            # meter.
            self._fluid.settle_strict()
        pps = self.rx_meter.rate(self.sim.now)
        self.rx_meter.reset(self.sim.now)
        new_interval = self.policy.on_sample(pps)
        if new_interval is not None:
            self._program_itr(new_interval)
        self._sample_handle = self.sim.schedule(self.policy.sample_period,
                                                self._sample_tick)

    def _program_itr(self, interval: float) -> None:
        """Write the throttle interval into the VTEITR register (the
        register's microsecond granularity applies, as on hardware)."""
        microseconds = max(1, int(round(interval * 1e6)))
        self.vf.regs.write_by_name("VTEITR0", microseconds)

    # ------------------------------------------------------------------
    def _refill_rx_ring(self) -> None:
        self.vf.rx_ring.post_until_full(RX_POOL_BASE, 4096, RX_BUFFER_BYTES)

    def _map_rx_pool(self) -> None:
        """DMA-map the receive buffer pool in the guest's I/O space, as
        the real driver does at probe time with dma_map_single()."""
        pool_pages = self.vf.rx_ring.size
        self.domain.io_page_table.map(
            RX_POOL_BASE, 0x4000_0000 + self.domain.id * 0x100_0000,
            size=pool_pages * 4096)
