"""VM-exit taxonomy and tracing.

Fig. 7 of the paper is produced by "tracing all VM-exit events in Xen,
to measure the CPU cycles spent, from the beginning of the VM-exit to
the end".  :class:`VmExitTracer` is that instrumentation: every exit the
hypervisor services is recorded with its kind and cycle cost, and the
benchmark reads back per-kind cycles/second.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass
class ExitRecord:
    """Aggregate for one exit kind."""

    count: int = 0
    cycles: float = 0.0


class VmExitTracer:
    """Per-kind exit counts and cycle totals (the Fig. 7 instrument)."""

    def __init__(self) -> None:
        self._records: Dict[VmExitKind, ExitRecord] = {
            kind: ExitRecord() for kind in VmExitKind
        }
        self._epoch: float = 0.0

    def record(self, kind: VmExitKind, cycles: float, count: int = 1) -> None:
        """Record ``count`` exits of ``kind`` costing ``cycles`` in all."""
        if cycles < 0:
            raise ValueError("exit cost cannot be negative")
        record = self._records[kind]
        record.count += count
        record.cycles += cycles

    def count(self, kind: VmExitKind) -> int:
        return self._records[kind].count

    def cycles(self, kind: VmExitKind) -> float:
        return self._records[kind].cycles

    @property
    def total_cycles(self) -> float:
        return sum(r.cycles for r in self._records.values())

    @property
    def total_count(self) -> int:
        return sum(r.count for r in self._records.values())

    def apic_access_cycles(self) -> float:
        """Combined APIC-access cost — the paper's headline hot spot."""
        return (self.cycles(VmExitKind.APIC_ACCESS_EOI)
                + self.cycles(VmExitKind.APIC_ACCESS_OTHER))

    def eoi_share_of_apic_accesses(self) -> float:
        """Fraction of APIC-access *exits* that are EOI writes (§5.2
        reports 47%)."""
        eoi = self.count(VmExitKind.APIC_ACCESS_EOI)
        other = self.count(VmExitKind.APIC_ACCESS_OTHER)
        total = eoi + other
        return eoi / total if total else 0.0

    def cycles_per_second(self, elapsed: float) -> Dict[VmExitKind, float]:
        """Per-kind cycles/second over a measurement window."""
        if elapsed <= 0:
            return {kind: 0.0 for kind in VmExitKind}
        return {kind: record.cycles / elapsed
                for kind, record in self._records.items()}

    def reset(self) -> None:
        for record in self._records.values():
            record.count = 0
            record.cycles = 0.0


#: The cycle ledger's category for each exit kind.
_EXIT_CATEGORIES: Dict[VmExitKind, str] = {
    kind: "exit." + kind.value for kind in VmExitKind}


def charge_exits(tracer: VmExitTracer, ledger, domain, kind: VmExitKind,
                 cycles: float, count: int = 1) -> None:
    """Book ``count`` exits of ``kind``, ``cycles`` in all, taken on
    ``domain``'s behalf: the exit tracer, the ledger's ``exit.<kind>``
    cell and the hypervisor's account on the domain's core."""
    tracer.record(kind, cycles, count)
    ledger.charge(domain.name, _EXIT_CATEGORIES[kind], cycles, count=count)
    domain.charge_hypervisor(cycles)
