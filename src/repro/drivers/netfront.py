"""Netfront: the guest half of the Xen PV split driver.

The "software emulated NIC" of the paper: hardware-neutral (which is why
DNIS can always fail over to it for migration, §4.4) but every packet
arrives via a dom0 copy and an event-channel notification.
"""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.drivers.guest_app import NetserverApp
from repro.net.packet import Packet
from repro.vmm.domain import Domain
from repro.vmm.grant_table import GrantTable

_frontend_ids = itertools.count()


class Netfront:
    """One guest's PV network frontend."""

    def __init__(self, platform, domain: Domain,
                 app: Optional[NetserverApp] = None, name: str = ""):
        self.platform = platform
        self.sim = platform.sim
        self.costs = platform.costs
        self.domain = domain
        self.app = app or NetserverApp(platform.costs)
        self.frontend_id = next(_frontend_ids)
        self.name = name or f"vif{domain.id}.0"
        self.grant_table = GrantTable(domain.id)
        self.backend = None  # set by Netback.connect
        self.mac = None  # assigned by the bridge / VMDq service
        self.carrier_on = True
        # Netdev-notifier analogue: called with the new state on every
        # carrier *transition* (suspend/resume), so a bonding driver
        # reacts immediately instead of a MII-monitor interval late.
        self.carrier_watchers: List = []
        self.rx_packets = 0
        self.notifications = 0
        #: The guest's cycles per received packet: a domain's kind is
        #: fixed at creation, so the PVM surcharge is priced once.
        self._cycles_per_packet = platform.costs.netfront_cycles_per_packet
        if domain.is_pvm:
            self._cycles_per_packet += (
                platform.costs.pvm_syscall_surcharge_per_packet)
        # The event channel netback signals us on.
        channels = getattr(platform, "event_channels", None)
        if channels is not None:
            self.event_port = channels.bind(self._upcall)
            self._notify = channels.notify
        else:
            self.event_port = None

    # ------------------------------------------------------------------
    def receive_burst(self, burst: List[Packet]) -> None:
        """Called by netback once the copy into our pages completed."""
        if not self.carrier_on:
            return
        # The event-channel upcall that tells us data landed.
        if self.event_port is not None:
            self._notify(self.event_port)
        costs = self.costs
        domain = self.domain
        domain.charge_hypervisor(costs.event_channel_notify_cycles)
        # The copy path is flow-controlled by the shared ring, so the
        # per-interrupt socket cap of the VF path does not apply.
        accepted, _ = self.app.deliver(burst, self.sim.now, capped=False)
        # One charge for the interrupt and the packets: cycle costs are
        # whole numbers (CostModel.validate), so the merged float sum is
        # exact and equals the two charges in turn.
        domain.charge_guest(costs.guest_cycles_per_interrupt
                            + self._cycles_per_packet * accepted)
        self.rx_packets += accepted
        trace = self.platform.trace
        if trace.live:
            trace.emit("netfront", "rx", domain=domain.id, packets=accepted)

    def _upcall(self, port: int) -> None:
        self.notifications += 1

    # ------------------------------------------------------------------
    def set_carrier(self, on: bool) -> None:
        """Link state as the bonding driver sees it."""
        changed = on != self.carrier_on
        self.carrier_on = on
        if changed:
            for watcher in list(self.carrier_watchers):
                watcher(on)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Netfront {self.name} domain={self.domain.name}>"
