"""Domains and VCPUs.

Xen's unit of isolation: domain 0 is the privileged service OS (PF
driver, device models, netback); guests are either hardware virtual
machines (HVM — full virtualization, virtual LAPIC) or paravirtualized
machines (PVM — event channels, no APIC exits).  The guest kernel
version matters to the paper: Linux 2.6.18 masks/unmasks the MSI vector
around every interrupt (the §5.1 hot spot), 2.6.28 does not and enables
tickless idle (§6).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.hw.cpu import Machine
from repro.hw.iommu import IoPageTable
from repro.hw.lapic import Lapic


class DomainKind(Enum):
    DOM0 = "dom0"
    HVM = "hvm"
    PVM = "pvm"
    #: A bare-metal driver context (the paper's native baseline).
    NATIVE = "native"


class GuestKernel(Enum):
    """The two guest kernels the evaluation uses (§5.1, §6)."""

    LINUX_2_6_18 = "2.6.18"  # RHEL5U1: masks MSI per interrupt
    LINUX_2_6_28 = "2.6.28"  # tickless; no runtime MSI mask/unmask

    @property
    def masks_msi_per_interrupt(self) -> bool:
        return self is GuestKernel.LINUX_2_6_18


#: The machine account of each domain kind's cycles; guests of every
#: kind share "guest".
_ACCOUNT_LABELS = {DomainKind.DOM0: "dom0", DomainKind.NATIVE: "native"}


@dataclass
class Vcpu:
    """A virtual CPU pinned to one hardware thread (§6.1 pinning)."""

    index: int
    core_index: int


class Domain:
    """One VM (or dom0): VCPUs, an I/O address space, accounting."""

    def __init__(
        self,
        domain_id: int,
        name: str,
        kind: DomainKind,
        machine: Machine,
        core_indexes: List[int],
        kernel: GuestKernel = GuestKernel.LINUX_2_6_28,
    ):
        if not core_indexes:
            raise ValueError("domain needs at least one VCPU pinning")
        self.id = domain_id
        self.name = name
        self.kind = kind
        self.kernel = kernel
        self.machine = machine
        self.vcpus = [Vcpu(i, core) for i, core in enumerate(core_indexes)]
        #: The I/O page table the IOMMU walks for this domain's devices.
        self.io_page_table = IoPageTable(domain_id)
        #: HVM guests get a virtual LAPIC per VCPU (we model VCPU 0's).
        self.lapic: Optional[Lapic] = Lapic(domain_id) if kind is DomainKind.HVM else None
        #: The xentop-style account this domain's cycles land in, and
        #: each VCPU's home core: a domain's kind and pinning are fixed
        #: at creation, so every charge indexes them directly.
        self.account_label = _ACCOUNT_LABELS.get(kind, "guest")
        self._home_cores = [machine.core(core) for core in core_indexes]
        self.running = True
        #: Per-domain cycle counter (the machine's accounts aggregate
        #: all guests into one label; this keeps the per-domain split
        #: for xentop-style reporting).
        self.cycles_consumed = 0.0

    # ------------------------------------------------------------------
    @property
    def is_hvm(self) -> bool:
        return self.kind is DomainKind.HVM

    @property
    def is_pvm(self) -> bool:
        return self.kind is DomainKind.PVM

    @property
    def is_dom0(self) -> bool:
        return self.kind is DomainKind.DOM0

    def home_core(self, vcpu: int = 0) -> int:
        return self.vcpus[vcpu].core_index

    # ------------------------------------------------------------------
    # cycle accounting helpers
    # ------------------------------------------------------------------
    def charge_guest(self, cycles: float, vcpu: int = 0) -> None:
        """Work executed inside this domain."""
        self._home_cores[vcpu].charge(self.account_label, cycles)
        self.cycles_consumed += cycles

    def reset_accounting(self) -> None:
        self.cycles_consumed = 0.0

    def charge_hypervisor(self, cycles: float, vcpu: int = 0) -> None:
        """Hypervisor work done on this domain's behalf (VM exits)."""
        self._home_cores[vcpu].charge("xen", cycles)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Domain {self.id} {self.name!r} {self.kind.value}>"
