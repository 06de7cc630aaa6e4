"""The NIC's on-chip layer-2 switch.

"The layer 2 switching classifies incoming packets, based on MAC and
VLAN addresses, directly stores the packets to the recipient's buffer
through the DMA" (paper §4.1).  The PF driver programs the (MAC, VLAN)
-> function table and is "responsible for configuring layer 2 switching,
to make sure that incoming packets, from either the physical line or
from other VFs, are properly routed".

The same table also enforces transmit-side anti-spoofing: a VF whose
guest forges a source MAC gets its packet dropped and counted, one of
the §4.3 policy hooks the PF driver can monitor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.net.mac import MacAddress, VLAN_NONE, validate_vlan
from repro.net.packet import Packet


@dataclass(frozen=True)
class SwitchTarget:
    """Where the switch delivers a classified packet.

    ``function_index`` is the receiving function: 0..N-1 for VFs, or
    :attr:`PF` for the physical function's own queues.
    """

    PF = -1
    UPLINK = -2

    function_index: int

    @property
    def is_uplink(self) -> bool:
        return self.function_index == self.UPLINK

    @property
    def is_pf(self) -> bool:
        return self.function_index == self.PF


class L2Switch:
    """(MAC, VLAN) classification with anti-spoof filtering."""

    def __init__(self, name: str = ""):
        self.name = name
        self._table: Dict[Tuple[MacAddress, int], int] = {}
        #: function index -> its assigned MAC (for anti-spoof).
        self._function_macs: Dict[int, MacAddress] = {}
        #: multicast group MAC -> set of subscribed function indexes
        #: (the per-function MTA tables, §4.2's "list of multicast
        #: addresses" the VF driver requests through the mailbox).
        self._multicast: Dict[MacAddress, set] = {}
        #: Bumped on every (un)program so classification caches can
        #: invalidate.
        self.generation = 0
        self.spoofed_drops = 0
        self.unknown_unicast = 0

    # ------------------------------------------------------------------
    # PF-driver-facing configuration
    # ------------------------------------------------------------------
    def program(self, mac: MacAddress, function_index: int,
                vlan: int = VLAN_NONE) -> None:
        """Bind (mac, vlan) to a receiving function."""
        validate_vlan(vlan)
        self._table[(mac, vlan)] = function_index
        self.generation += 1
        if function_index != SwitchTarget.UPLINK:
            # The function's primary (anti-spoof) address is its most
            # recently programmed one.
            self._function_macs[function_index] = mac

    def unprogram(self, mac: MacAddress, vlan: int = VLAN_NONE) -> None:
        self._table.pop((mac, vlan), None)
        self.generation += 1

    def subscribe_multicast(self, function_index: int,
                            mac: MacAddress) -> None:
        """Add a function to a multicast group's delivery set."""
        if not mac.is_multicast:
            raise ValueError(f"{mac} is not a multicast address")
        self._multicast.setdefault(mac, set()).add(function_index)
        self.generation += 1

    def unsubscribe_multicast(self, function_index: int,
                              mac: MacAddress) -> None:
        subscribers = self._multicast.get(mac)
        if subscribers is not None:
            subscribers.discard(function_index)
            if not subscribers:
                del self._multicast[mac]
        self.generation += 1

    def entries(self) -> List[Tuple[MacAddress, int, int]]:
        return [(mac, vlan, fn) for (mac, vlan), fn in sorted(
            self._table.items(), key=lambda item: (item[0][0].value, item[0][1])
        )]

    def mac_of(self, function_index: int) -> Optional[MacAddress]:
        return self._function_macs.get(function_index)

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def classify(self, packet: Packet) -> List[SwitchTarget]:
        """Route an incoming (wire or loopback) packet.

        Multicast/broadcast floods to every local function; unknown
        unicast goes to the uplink (out the wire / dropped if it *came*
        from the wire — the caller knows the ingress side).
        """
        if packet.dst.is_multicast:
            if packet.dst.is_broadcast:
                # Broadcast floods every local function.
                return [SwitchTarget(fn)
                        for fn in sorted(set(self._function_macs))]
            # Multicast delivers to subscribed functions only.
            return [SwitchTarget(fn)
                    for fn in sorted(self._multicast.get(packet.dst, ()))]
        target = self._table.get((packet.dst, packet.vlan))
        if target is None and packet.vlan != VLAN_NONE:
            # Untagged table entry still matches a tagged frame's MAC.
            target = self._table.get((packet.dst, VLAN_NONE))
        if target is None:
            self.unknown_unicast += 1
            return [SwitchTarget(SwitchTarget.UPLINK)]
        return [SwitchTarget(target)]

    def resolve_unicast(self, dst: MacAddress,
                        vlan: int = VLAN_NONE) -> Optional[int]:
        """Side-effect-free unicast lookup for the fluid datapath.

        Returns the local function index (mac, vlan) resolves to, or
        ``None`` for multicast/broadcast, unknown unicast, and uplink
        bindings — exactly the cases where :meth:`classify` would flood,
        count, or forward off-chip.  No counters move: eligibility
        probing must not perturb the exact-mode books.
        """
        if dst.is_multicast:
            return None
        target = self._table.get((dst, vlan))
        if target is None and vlan != VLAN_NONE:
            target = self._table.get((dst, VLAN_NONE))
        if target is None or target == SwitchTarget.UPLINK:
            return None
        return target

    def check_transmit(self, function_index: int, packet: Packet) -> bool:
        """Anti-spoof: the source MAC must be the function's own."""
        assigned = self._function_macs.get(function_index)
        if assigned is not None and packet.src != assigned:
            self.spoofed_drops += 1
            return False
        return True

    def is_local(self, mac: MacAddress, vlan: int = VLAN_NONE) -> bool:
        """Does this (mac, vlan) terminate at a local function?"""
        target = self._table.get((mac, vlan))
        if target is None and vlan != VLAN_NONE:
            target = self._table.get((mac, VLAN_NONE))
        return target is not None and target != SwitchTarget.UPLINK
