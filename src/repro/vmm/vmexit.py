"""The VM-exit taxonomy and its one book.

Fig. 7 of the paper is produced by "tracing all VM-exit events in Xen,
to measure the CPU cycles spent, from the beginning of the VM-exit to
the end".  Here the hypervisor's cycle ledger is that instrument: every
exit it services is charged to the ledger's ``exit.<kind>`` cell with
its cycle cost, and the runners read per-kind counts and cycles/second
back from :meth:`~repro.obs.ledger.CycleLedger.exit_breakdown`.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict


class VmExitKind(Enum):
    """The exit reasons that matter to the paper's analysis."""

    EXTERNAL_INTERRUPT = "external-interrupt"
    APIC_ACCESS_EOI = "apic-access-eoi"
    APIC_ACCESS_OTHER = "apic-access-other"
    MSIX_MASK = "msix-mask"
    MSIX_UNMASK = "msix-unmask"
    IO_INSTRUCTION = "io-instruction"
    HYPERCALL = "hypercall"
    OTHER = "other"


#: The cycle ledger's category for each exit kind.
_EXIT_CATEGORIES: Dict[VmExitKind, str] = {
    kind: "exit." + kind.value for kind in VmExitKind}


def charge_exits(ledger, domain, kind: VmExitKind, cycles: float,
                 count: int = 1) -> None:
    """Book ``count`` exits of ``kind``, ``cycles`` in all, taken on
    ``domain``'s behalf: the ledger's ``exit.<kind>`` cell and the
    hypervisor's account on the domain's core."""
    ledger.charge(domain.name, _EXIT_CATEGORIES[kind], cycles, count=count)
    domain.charge_hypervisor(cycles)
