"""The PF (igb) driver in the service OS.

"The PF driver directly accesses all PF resources and is responsible
for configuring and managing VFs.  It sets the number of VFs, globally
enables or disables VFs, and sets up device specific configurations,
such as MAC address and VLAN settings ... The PF driver is also
responsible for configuring layer 2 switching" (§4.1).

It also terminates the §4.2 mailbox protocol (servicing VF requests,
broadcasting physical events) and enforces the §4.3 policy hooks: it
inspects VF requests and can shut a misbehaving VF down.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devices.igb82576 import (
    Igb82576Port,
    RX_BUFFER_BYTES,
    VECTOR_RXTX,
    VirtualFunction,
)
from repro.devices.mailbox import Mailbox, MailboxMessage, MailboxRetrier
from repro.drivers.guest_app import NetserverApp
from repro.drivers.napi import NapiContext
from repro.hw.msi import MsiMessage
from repro.net.mac import MacAddress, MacAllocator
from repro.net.packet import Packet
from repro.vmm.domain import Domain

MSI_ADDRESS = 0xFEE00000

#: dom0-physical base of the PF's own RX pool.
PF_RX_POOL_BASE = 0x20_0000


class PfDriver:
    """One port's igb instance, running in dom0 (or the native host)."""

    def __init__(self, platform, dom0: Domain, port: Igb82576Port,
                 name: str = "", mac_realm: int = 0):
        self.platform = platform
        self.sim = platform.sim
        self.costs = platform.costs
        self.dom0 = dom0
        self.port = port
        self.name = name or f"igb.{port.name}"
        self.mac_allocator = MacAllocator(port.index, realm=mac_realm)
        self.napi = NapiContext()
        self.app = NetserverApp(platform.costs, name=f"{self.name}.pf-app")
        self.rx_vector: Optional[int] = None
        self.running = False
        #: Requests serviced per VF index (the §4.3 monitoring hook).
        self.vf_requests: Dict[int, List[str]] = {}
        #: Each VF's currently programmed multicast list.
        self._vf_multicast: Dict[int, List[MacAddress]] = {}
        self.vfs_shut_down: List[int] = []
        #: Per-VF sender-side retry protection for PF -> VF broadcasts.
        self._retriers: Dict[int, MailboxRetrier] = {}

    # ------------------------------------------------------------------
    # lifecycle and VF management
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring the PF up: claim its own MAC, rings, and interrupt.

        Configuration happens the way the real igb does it — MMIO
        register writes: receive enable in RCTL, the port MAC into
        receive-address entry 0 (pool 0 = the PF).
        """
        if self.running:
            return
        from repro.devices.igb_regs import RCTL_RXEN, ral_rah_for_mac
        self.port.pf.mac = self.mac_allocator.allocate()
        self.port.regs.write_by_name("RCTL", RCTL_RXEN)
        ral, rah = ral_rah_for_mac(self.port.pf.mac, pool=0)
        self.port.regs.write_by_name("RAL0", ral)
        self.port.regs.write_by_name("RAH0", rah)
        self._map_and_fill_pf_ring()
        self.rx_vector = self.platform.bind_guest_msi(
            self.dom0, self._pf_isr, source_rid=self.port.pf.pci.rid)
        self.port.pf.msix.configure(VECTOR_RXTX,
                                    MsiMessage(MSI_ADDRESS, self.rx_vector))
        self.port.pf.msix.unmask(VECTOR_RXTX)
        self.running = True

    def enable_sriov(self, vf_count: int) -> List[VirtualFunction]:
        """Program NumVFs + VF Enable; assign each VF a MAC and switch
        entry; wire up the PF end of every mailbox."""
        vfs = self.port.enable_vfs(vf_count)
        for vf in vfs:
            self.set_vf_mac(vf.index, self.mac_allocator.allocate())
            vf.mailbox.connect(
                Mailbox.PF,
                lambda message, vf=vf: self._service_vf_request(vf, message),
            )
            self._retriers[vf.index] = MailboxRetrier(self.sim, vf.mailbox,
                                                      Mailbox.PF)
        return vfs

    def set_vf_mac(self, index: int, mac: MacAddress) -> None:
        """Program a VF's MAC into receive-address entry ``index + 1``
        with the matching pool select (RAL/RAH writes, as igb does);
        the RAH hook steers the L2 switch."""
        from repro.devices.igb_regs import ral_rah_for_mac
        vf = self.port.vf(index)
        vf.mac = mac
        ral, rah = ral_rah_for_mac(mac, pool=index + 1)
        self.port.regs.write_by_name(f"RAL{index + 1}", ral)
        self.port.regs.write_by_name(f"RAH{index + 1}", rah)

    def set_vf_vlan(self, index: int, vlan: int) -> None:
        vf = self.port.vf(index)
        if vf.mac is None:
            raise RuntimeError(f"VF {index} has no MAC yet")
        self.port.switch.program(vf.mac, index, vlan=vlan)

    def shutdown_vf(self, index: int) -> None:
        """The §4.3 enforcement action against a misbehaving VF."""
        vf = self.port.vf(index)
        vf.reset()
        if vf.mac is not None:
            self.port.switch.unprogram(vf.mac)
        self.vfs_shut_down.append(index)

    def set_vf_rate_limit(self, index: int, bps: float) -> None:
        """§4.3: "the PF driver to monitor and enforce policies
        concerning VF device bandwidth usage" — program the device's
        per-pool transmit rate limiter.  0 removes the limit."""
        if bps < 0:
            raise ValueError("rate limit must be non-negative")
        self.port.vf(index).tx_rate_limit_bps = bps

    def set_vf_itr_floor(self, index: int, max_interrupt_hz: float) -> None:
        """§4.3 "interrupt throttling": bound how often this VF may
        interrupt, regardless of what its guest driver asks for."""
        if max_interrupt_hz <= 0:
            raise ValueError("interrupt ceiling must be positive")
        vf = self.port.vf(index)
        vf.itr_floor_interval = 1.0 / max_interrupt_hz
        # Apply to the currently programmed interval too.
        if vf.throttle.interval < vf.itr_floor_interval:
            vf.throttle.set_interval(vf.itr_floor_interval)

    # ------------------------------------------------------------------
    # mailbox protocol (§4.2)
    # ------------------------------------------------------------------
    def _service_vf_request(self, vf: VirtualFunction,
                            message: MailboxMessage) -> None:
        """Doorbell from a VF: inspect, apply, acknowledge.

        This is also the §4.3 inspection point: "the PF driver inspects
        configuration requests from VF drivers" — requests are logged
        per VF before being applied.
        """
        self.vf_requests.setdefault(vf.index, []).append(message.kind)
        self.platform.trace.emit("mbx", "pf_service", port=self.port.index,
                                 vf=vf.index, kind=message.kind)
        if message.kind == "set_vlan":
            self.set_vf_vlan(vf.index, int(message.body))
        elif message.kind == "set_multicast":
            self._apply_vf_multicast(vf.index, list(message.body or []))
        vf.mailbox.acknowledge(Mailbox.PF)

    def _apply_vf_multicast(self, index: int, groups: List[MacAddress]) -> None:
        """Replace a VF's multicast subscription list in the switch."""
        for old in self._vf_multicast.get(index, []):
            self.port.switch.unsubscribe_multicast(index, old)
        for mac in groups:
            self.port.switch.subscribe_multicast(index, mac)
        self._vf_multicast[index] = list(groups)

    def broadcast_event(self, kind: str, body=None) -> None:
        """Forward a physical event to every VF driver: "impending
        global device reset, link status change, and impending driver
        removal" (§4.2)."""
        self.platform.trace.emit("mbx", "pf_broadcast", port=self.port.index,
                                 kind=kind)
        for vf in self.port.vfs:
            if vf.enabled:
                retrier = self._retriers.get(vf.index)
                if retrier is not None:
                    retrier.send(MailboxMessage(kind, body=body))
                else:
                    vf.mailbox.send(Mailbox.PF, MailboxMessage(kind, body=body))

    @property
    def mailbox_retries(self) -> int:
        return sum(r.retries for r in self._retriers.values())

    @property
    def mailbox_abandoned(self) -> int:
        return sum(r.abandoned for r in self._retriers.values())

    # ------------------------------------------------------------------
    # physical events (§4.2)
    # ------------------------------------------------------------------
    def global_reset(self, duration: float = 0.01) -> None:
        """Reset the whole device: notify VFs first, then reset the PF's
        own data path; everything re-initializes after ``duration``."""
        self.broadcast_event("reset", body={"duration": duration})
        self.port.pf.rx_ring.reset()
        self.port.pf.enabled = False

        def pf_reinit() -> None:
            self.port.pf.enabled = True
            self._refill_pf_ring()

        self.sim.schedule(duration, pf_reinit)

    def notify_link_change(self, up: bool) -> None:
        """Physical line went up/down: propagate to every VF driver."""
        self.port.link_up = up
        self.broadcast_event("link_change", body={"up": up})

    def announce_removal(self) -> None:
        """The PF driver is being unloaded: VF drivers must quiesce."""
        self.broadcast_event("driver_removal")
        self.running = False

    # ------------------------------------------------------------------
    # the PF's own data path (dom0 traffic, e.g. Fig. 10's sender)
    # ------------------------------------------------------------------
    def transmit(self, burst: List[Packet]) -> int:
        if not self.running:
            return 0
        self.dom0.charge_guest(self.costs.guest_cycles_per_packet * len(burst))
        return self.port.pf.hw_transmit(burst)

    def _pf_isr(self, vector: int) -> None:
        self.dom0.charge_guest(self.costs.guest_cycles_per_interrupt)
        packets = self.napi.poll_all(self.port.pf.rx_ring)
        self._refill_pf_ring()
        if packets:
            self.app.deliver(packets, self.sim.now)
            self.dom0.charge_guest(
                self.costs.guest_cycles_per_packet * len(packets))

    def _map_and_fill_pf_ring(self) -> None:
        if self.platform.iommu is not None:
            self.dom0.io_page_table.map(
                PF_RX_POOL_BASE, 0x8000_0000,
                size=self.port.pf.rx_ring.size * 4096)
            self.platform.iommu.attach(self.port.pf.pci.rid,
                                       self.dom0.io_page_table)
        self._refill_pf_ring()

    def _refill_pf_ring(self) -> None:
        self.port.pf.rx_ring.post_until_full(PF_RX_POOL_BASE, 4096,
                                             RX_BUFFER_BYTES)
