"""IOMMU: RID-indexed DMA remapping and protection.

SR-IOV "inherits Direct I/O technology, using IOMMU to offload memory
protection and address translation" (paper §1).  Each PCIe requester ID
indexes a context entry pointing at the I/O page table of the VM that
owns the function; runtime DMA addresses programmed by the guest (guest
physical) are translated to machine physical and permission-checked
without hypervisor involvement.
"""

from __future__ import annotations

from itertools import repeat
from typing import Dict, Optional

PAGE_SIZE = 4096
PAGE_MASK = PAGE_SIZE - 1


class IommuFault(RuntimeError):
    """A blocked DMA: no context entry, no mapping, or permission denied."""

    def __init__(self, rid: int, address: int, reason: str):
        super().__init__(f"IOMMU fault rid={rid:#06x} addr={address:#x}: {reason}")
        self.rid = rid
        self.address = address
        self.reason = reason


class IoPageTable:
    """One VM's I/O address space: guest-physical page -> machine page."""

    def __init__(self, domain_id: int):
        self.domain_id = domain_id
        #: gfn -> (mfn, writable)
        self._entries: Dict[int, "tuple[int, bool]"] = {}

    def map(self, guest_addr: int, machine_addr: int, size: int = PAGE_SIZE,
            writable: bool = True) -> None:
        """Map a page-aligned range of guest-physical to machine-physical."""
        self._check_aligned(guest_addr, machine_addr, size)
        pages = size // PAGE_SIZE
        gfn = guest_addr >> 12
        mfn = machine_addr >> 12
        self._entries.update(zip(range(gfn, gfn + pages),
                                 zip(range(mfn, mfn + pages),
                                     repeat(writable))))

    def unmap(self, guest_addr: int, size: int = PAGE_SIZE) -> None:
        if guest_addr & PAGE_MASK or size & PAGE_MASK:
            raise ValueError("unmap must be page aligned")
        for i in range(size // PAGE_SIZE):
            self._entries.pop((guest_addr >> 12) + i, None)

    def lookup(self, guest_addr: int) -> Optional["tuple[int, bool]"]:
        """Translate one address; returns (machine_addr, writable) or None."""
        entry = self._entries.get(guest_addr >> 12)
        if entry is None:
            return None
        mfn, writable = entry
        return (mfn << 12) | (guest_addr & PAGE_MASK), writable

    @property
    def mapped_pages(self) -> int:
        return len(self._entries)

    @staticmethod
    def _check_aligned(guest_addr: int, machine_addr: int, size: int) -> None:
        if guest_addr & PAGE_MASK or machine_addr & PAGE_MASK:
            raise ValueError("mappings must be page aligned")
        if size <= 0 or size & PAGE_MASK:
            raise ValueError("size must be a positive page multiple")


class Iommu:
    """The DMA-remapping unit: context table from RID to I/O page table.

    Statistics count translations and faults; the security tests use the
    fault path to show that a VF cannot reach another VM's memory (§4.3).
    """

    def __init__(self) -> None:
        self._contexts: Dict[int, IoPageTable] = {}
        self.translations = 0
        self.faults = 0

    def attach(self, rid: int, table: IoPageTable) -> None:
        """Point ``rid``'s context entry at a VM's I/O page table."""
        self._contexts[rid] = table

    def detach(self, rid: int) -> None:
        self._contexts.pop(rid, None)

    def context_for(self, rid: int) -> Optional[IoPageTable]:
        return self._contexts.get(rid)

    def translate(self, rid: int, guest_addr: int, write: bool = False) -> int:
        """Translate a DMA address for requester ``rid``.

        Raises :class:`IommuFault` when the requester has no context
        entry, the address is unmapped, or a write hits a read-only page.
        """
        table = self._contexts.get(rid)
        if table is None:
            self.faults += 1
            raise IommuFault(rid, guest_addr, "no context entry for requester")
        entry = table.lookup(guest_addr)
        if entry is None:
            self.faults += 1
            raise IommuFault(rid, guest_addr, "address not mapped")
        machine_addr, writable = entry
        if write and not writable:
            self.faults += 1
            raise IommuFault(rid, guest_addr, "write to read-only mapping")
        self.translations += 1
        return machine_addr
