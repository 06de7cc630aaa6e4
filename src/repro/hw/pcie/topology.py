"""PCIe topology: functions, switches, ACS and the root complex.

Two behaviours here carry the paper's §4.1 and §4.3:

* **VFs do not answer bus scans.**  A VF is a trimmed function without a
  full config header, so :meth:`RootComplex.scan` never finds one; the
  host uses the hot-add path (:meth:`RootComplex.hot_add`) after the PF
  driver enables VFs — mirroring the paper's use of Linux PCI hot-add
  APIs.
* **Peer-to-peer routing and ACS.**  A memory request from one VF aimed
  at a sibling VF's MMIO window can be routed *directly* inside a shared
  switch, bypassing the IOMMU — the security hole of §4.3.  Turning on
  ACS upstream redirect on the downstream ports forces the request up to
  the root complex where the IOMMU validates (and, for MMIO targets,
  rejects) it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.hw.iommu import Iommu, IommuFault
from repro.hw.pcie.config_space import ConfigSpace, INVALID_VENDOR_ID


def make_rid(bus: int, device: int, function: int) -> int:
    """Encode bus:device.function into a 16-bit requester ID."""
    if not 0 <= bus <= 0xFF:
        raise ValueError("bus out of range")
    if not 0 <= device <= 0x1F:
        raise ValueError("device out of range")
    if not 0 <= function <= 0x7:
        raise ValueError("function out of range")
    return (bus << 8) | (device << 3) | function


def format_rid(rid: int) -> str:
    """Render a RID in the conventional ``bb:dd.f`` form."""
    return f"{(rid >> 8) & 0xFF:02x}:{(rid >> 3) & 0x1F:02x}.{rid & 0x7}"


class AcsViolation(RuntimeError):
    """A peer-to-peer transaction reached memory it must not touch."""


class PciFunction:
    """A PCIe function: config space + RID + optional MMIO window.

    ``responds_to_scan`` is False for VFs: they lack the full config
    header and are invisible to an ordinary vendor-ID probe (paper §4.1).
    """

    def __init__(self, config: ConfigSpace, responds_to_scan: bool = True,
                 name: str = ""):
        self.config = config
        self.responds_to_scan = responds_to_scan
        self.name = name
        self.rid: Optional[int] = None
        #: (base, size) of the function's MMIO window, if mapped.
        self.mmio_window: Optional[Tuple[int, int]] = None
        #: Handler invoked for MMIO writes that land in our window.
        self.on_mmio_write: Optional[Callable[[int, int], None]] = None
        self.mmio_writes_received = 0

    def map_mmio(self, base: int, size: int) -> None:
        if size <= 0:
            raise ValueError("MMIO window must have positive size")
        self.mmio_window = (base, size)
        self.config.set_bar(0, base)

    def owns_address(self, address: int) -> bool:
        if self.mmio_window is None:
            return False
        base, size = self.mmio_window
        return base <= address < base + size

    def deliver_mmio_write(self, address: int, value: int) -> None:
        self.mmio_writes_received += 1
        if self.on_mmio_write is not None:
            self.on_mmio_write(address, value)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        rid = format_rid(self.rid) if self.rid is not None else "unbound"
        return f"<PciFunction {self.name or 'anon'} rid={rid}>"


class DownstreamPort:
    """A switch downstream port with an ACS upstream-redirect control."""

    def __init__(self, index: int):
        self.index = index
        self.function: Optional[PciFunction] = None
        #: ACS P2P Request Redirect: when set, peer requests go upstream.
        self.acs_redirect = False

    def attach(self, function: PciFunction) -> None:
        self.function = function


class Switch:
    """A PCIe switch fanning one upstream link out to downstream ports."""

    def __init__(self, port_count: int, name: str = ""):
        if port_count <= 0:
            raise ValueError("switch needs downstream ports")
        self.name = name
        self.ports = [DownstreamPort(i) for i in range(port_count)]

    def port_of(self, function: PciFunction) -> Optional[DownstreamPort]:
        for port in self.ports:
            if port.function is function:
                return port
        return None

    def enable_acs_redirect(self) -> None:
        """Turn on upstream forwarding on every downstream port (§4.3)."""
        for port in self.ports:
            port.acs_redirect = True

    def functions(self) -> List[PciFunction]:
        return [port.function for port in self.ports if port.function is not None]


class RootComplex:
    """The host bridge: enumeration, hot-add, and transaction routing."""

    def __init__(self, iommu: Optional[Iommu] = None):
        self.iommu = iommu
        self._functions: Dict[int, PciFunction] = {}
        self._switches: List[Switch] = []
        self.hot_added: List[int] = []
        self.p2p_direct_routed = 0
        self.p2p_redirected = 0

    # ------------------------------------------------------------------
    # topology construction
    # ------------------------------------------------------------------
    def attach(self, function: PciFunction, bus: int, device: int,
               fn: int = 0) -> int:
        """Plug a function in at a fixed address; returns its RID."""
        rid = make_rid(bus, device, fn)
        if rid in self._functions:
            raise ValueError(f"RID {format_rid(rid)} already occupied")
        function.rid = rid
        self._functions[rid] = function
        return rid

    def attach_at_rid(self, function: PciFunction, rid: int) -> int:
        """Plug a function in at a raw RID (VFs use computed RIDs)."""
        if rid in self._functions:
            raise ValueError(f"RID {format_rid(rid)} already occupied")
        function.rid = rid
        self._functions[rid] = function
        return rid

    def detach(self, function: PciFunction) -> None:
        if function.rid is not None:
            self._functions.pop(function.rid, None)
            function.rid = None

    def add_switch(self, switch: Switch) -> None:
        self._switches.append(switch)

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def probe(self, rid: int) -> int:
        """Read the vendor ID at ``rid`` the way a bus scan would.

        Functions that don't respond (VFs, empty slots) float high.
        """
        function = self._functions.get(rid)
        if function is None or not function.responds_to_scan:
            return INVALID_VENDOR_ID
        return function.config.vendor_id

    def scan(self) -> List[PciFunction]:
        """Enumerate all functions that answer a vendor-ID probe."""
        found = []
        for rid in sorted(self._functions):
            if self.probe(rid) != INVALID_VENDOR_ID:
                found.append(self._functions[rid])
        return found

    def hot_add(self, function: PciFunction, rid: int) -> None:
        """The Linux PCI hot-add path the IOVM uses to surface VFs."""
        self.attach_at_rid(function, rid)
        self.hot_added.append(rid)

    def function_at(self, rid: int) -> Optional[PciFunction]:
        return self._functions.get(rid)

    # ------------------------------------------------------------------
    # transaction routing
    # ------------------------------------------------------------------
    def memory_write(self, source: PciFunction, address: int, value: int = 0,
                     is_dma_address: bool = True) -> str:
        """Route a memory request from ``source``.

        Returns the route taken: ``"direct-p2p"`` when a same-switch peer
        MMIO window swallowed it without IOMMU involvement (the §4.3
        hole), or ``"upstream"`` when it traversed the root complex and
        the IOMMU validated it.

        Raises :class:`AcsViolation` (for MMIO targets) or
        :class:`~repro.hw.iommu.IommuFault` (for DMA targets) when the
        upstream path rejects the access.
        """
        if source.rid is None:
            raise RuntimeError("source function is not attached")
        switch = self._switch_of(source)
        if switch is not None:
            peer = self._peer_window_hit(switch, source, address)
            if peer is not None:
                port = switch.port_of(source)
                assert port is not None
                if not port.acs_redirect:
                    # Routed inside the switch: no IOMMU, no protection.
                    self.p2p_direct_routed += 1
                    peer.deliver_mmio_write(address, value)
                    return "direct-p2p"
                self.p2p_redirected += 1
                # Redirected upstream: MMIO of another function is never
                # in the source VM's IOMMU mapping, so this is fatal.
                if self.iommu is not None:
                    try:
                        self.iommu.translate(source.rid, address, write=True)
                    except IommuFault as fault:
                        raise AcsViolation(
                            f"P2P write from {format_rid(source.rid)} to "
                            f"{address:#x} blocked upstream"
                        ) from fault
                raise AcsViolation(
                    f"P2P write from {format_rid(source.rid)} to {address:#x} "
                    "redirected upstream and rejected"
                )
        # Plain upstream DMA: translate through the IOMMU if present.
        if self.iommu is not None and is_dma_address:
            self.iommu.translate(source.rid, address, write=True)
        return "upstream"

    # ------------------------------------------------------------------
    def _switch_of(self, function: PciFunction) -> Optional[Switch]:
        for switch in self._switches:
            if switch.port_of(function) is not None:
                return switch
        return None

    @staticmethod
    def _peer_window_hit(switch: Switch, source: PciFunction,
                         address: int) -> Optional[PciFunction]:
        for peer in switch.functions():
            if peer is not source and peer.owns_address(address):
                return peer
        return None
