"""The virtual LAPIC device model.

For an HVM guest, every touch of the APIC page is an APIC-access VM exit
the hypervisor must emulate (paper §5.2).  This wrapper owns the guest's
:class:`~repro.hw.lapic.Lapic` state machine and charges the calibrated
cost of each exit:

* **EOI writes** — the §5.2 hot spot.  Unoptimized, Xen fetches, decodes
  and emulates the guest instruction (8.4 K cycles).  With acceleration
  it reads the Exit-qualification field and jumps straight to the EOI
  handler (2.5 K), optionally paying 1.8 K more to re-check the
  instruction for complex encodings.
* **Other APIC accesses** — window reads, TPR and injection bookkeeping,
  modelled as a calibrated count per delivered interrupt so EOI writes
  come out at the paper's 47% of APIC-access exits.
"""

from __future__ import annotations

from typing import Optional

from repro.vmm.domain import Domain
from repro.vmm.vmexit import VmExitKind, charge_exits


class VirtualLapic:
    """Emulates one HVM guest's local APIC."""

    def __init__(self, domain: Domain, host):
        if domain.lapic is None:
            raise ValueError(f"domain {domain.name} has no LAPIC (not HVM?)")
        self.domain = domain
        #: The owning hypervisor.  Exits book into its live
        #: ``ledger`` and ``trace``, so telemetry installed after guest
        #: creation works.
        self.host = host
        self.costs = host.costs
        self.opts = host.opts
        self._carry: float = 0.0  # fractional other-APIC accesses

    # ------------------------------------------------------------------
    # hypervisor side: injection
    # ------------------------------------------------------------------
    def inject(self, vector: int) -> None:
        """Queue and deliver a virtual interrupt to the guest.

        Charges the non-EOI APIC-access exits that surround delivery
        (interrupt-window handling, IRR/ISR updates seen from the
        guest's accesses).
        """
        lapic = self.domain.lapic
        assert lapic is not None
        lapic.fire(vector)
        if lapic.interrupt_window_open:
            lapic.ack()
        accesses = self.other_accesses()
        if accesses:
            self.host.trace.emit("apic", "inject", vector=vector,
                                 domain=self.domain.id, accesses=accesses)
        for _ in range(accesses):
            self.account(other=1)

    def other_accesses(self) -> int:
        """The non-EOI APIC accesses one interrupt costs: the calibrated
        count is fractional (1.13), so the remainder carries over."""
        self._carry += self.costs.other_apic_accesses_per_interrupt
        accesses = int(self._carry)
        self._carry -= accesses
        return accesses

    @property
    def eoi_cycles(self) -> float:
        """The cost of one EOI-write exit under the §5.2 switches."""
        costs = self.costs
        if self.opts.eoi_acceleration:
            cost = costs.eoi_accelerated_cycles
            if self.opts.eoi_instruction_check:
                cost += costs.eoi_instruction_check_cycles
            return cost
        return costs.eoi_emulate_cycles

    def account(self, other: int = 0, eois: int = 0) -> None:
        """Charge ``other`` non-EOI APIC-access exits and ``eois`` EOI
        writes to this guest."""
        if other:
            charge_exits(self.host.ledger, self.domain,
                         VmExitKind.APIC_ACCESS_OTHER,
                         self.costs.other_apic_access_cycles * other, other)
        if eois:
            charge_exits(self.host.ledger, self.domain,
                         VmExitKind.APIC_ACCESS_EOI,
                         self.eoi_cycles * eois, eois)

    # ------------------------------------------------------------------
    # guest side: the EOI write at the end of the handler
    # ------------------------------------------------------------------
    def eoi_write(self) -> Optional[int]:
        """The guest writes the EOI register; returns the retired vector.

        This is an APIC-access exit whose cost depends on the §5.2
        optimization switches.
        """
        self.account(eois=1)
        self.host.trace.emit("apic", "eoi", domain=self.domain.id,
                             accelerated=self.opts.eoi_acceleration)
        lapic = self.domain.lapic
        assert lapic is not None
        retired = lapic.eoi()
        # A higher-priority vector pending behind the retired one is
        # dispatched now.
        if lapic.interrupt_window_open:
            lapic.ack()
        return retired
