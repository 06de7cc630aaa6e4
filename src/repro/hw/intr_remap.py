"""VT-d interrupt remapping.

DMA remapping (the IOMMU page tables) protects memory; *interrupt*
remapping protects the vector space.  Without it, any device that can
post a memory write can forge an MSI with an arbitrary vector —
including a vector owned by another VM.  The remapping unit validates
each interrupt message against an Interrupt Remapping Table Entry
(IRTE) keyed by the posting function's requester ID, and substitutes
the *programmed* vector for whatever the message carried.

This closes the loop on the paper's §4.1 vector discipline: "Xen ...
recognizes the guest which owns the interrupt by vector, which is
globally allocated to avoid interrupt sharing" — safe only because the
hardware guarantees a VF cannot raise vectors it was not granted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hw.msi import MsiMessage


class InterruptRemapFault(RuntimeError):
    """A blocked interrupt: no IRTE, or RID not permitted to use it."""

    def __init__(self, rid: int, vector: int, reason: str):
        super().__init__(
            f"interrupt remap fault rid={rid:#06x} vector={vector:#x}: {reason}")
        self.rid = rid
        self.vector = vector
        self.reason = reason


@dataclass(frozen=True)
class Irte:
    """One Interrupt Remapping Table Entry."""

    source_rid: int
    vector: int
    #: Destination APIC (which physical CPU takes the interrupt).
    destination: int = 0


class InterruptRemapper:
    """The remapping unit: (RID, handle) -> validated vector."""

    def __init__(self) -> None:
        #: source_rid -> {requested_vector -> IRTE}: a function's entries
        #: are one dict read away, because every posted interrupt asks
        #: whether its RID has any.
        self._by_rid: Dict[int, Dict[int, Irte]] = {}
        self.remapped = 0
        self.faults = 0

    def program(self, source_rid: int, vector: int,
                destination: int = 0) -> Irte:
        """Install an IRTE permitting ``source_rid`` to raise ``vector``."""
        entry = Irte(source_rid, vector, destination)
        self._by_rid.setdefault(source_rid, {})[vector] = entry
        return entry

    def revoke(self, source_rid: int, vector: int) -> None:
        entries = self._by_rid.get(source_rid)
        if entries is not None:
            entries.pop(vector, None)
            if not entries:
                del self._by_rid[source_rid]

    def revoke_all_for(self, source_rid: int) -> int:
        """Tear down every IRTE of a function (device removal)."""
        return len(self._by_rid.pop(source_rid, ()))

    def lookup(self, source_rid: int, vector: int) -> Optional[Irte]:
        """The IRTE permitting ``source_rid`` to raise ``vector``, if any."""
        entries = self._by_rid.get(source_rid)
        return None if entries is None else entries.get(vector)

    def remap(self, source_rid: int, message: MsiMessage) -> Irte:
        """Validate and translate one posted interrupt.

        Raises :class:`InterruptRemapFault` when the source has no IRTE
        for the vector it is trying to raise — the anti-spoofing
        property.
        """
        entry = self.lookup(source_rid, message.vector)
        if entry is None:
            self.faults += 1
            raise InterruptRemapFault(source_rid, message.vector,
                                      "no IRTE for this source/vector")
        self.remapped += 1
        return entry

    def entries_for(self, source_rid: int) -> int:
        return len(self._by_rid.get(source_rid, ()))

    @property
    def entry_count(self) -> int:
        return sum(map(len, self._by_rid.values()))
