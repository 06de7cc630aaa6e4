"""The user-level device model (qemu-dm) in domain 0.

Each HVM guest is backed by a device-model process that emulates its
virtual platform.  Two of its duties matter to the paper:

* **MSI-X mask/unmask emulation** (§5.1).  A Linux 2.6.18 guest masks
  the vector at the top of every MSI handler and unmasks it at the
  bottom.  Unoptimized, each of those MMIO writes VM-exits to Xen, is
  forwarded to the device model (a domain context switch plus a task
  switch inside dom0), emulated in user space, and returned.  With the
  §5.1 acceleration the hypervisor emulates the write itself and dom0
  never wakes up.
* **Housekeeping** — the device-model processes consume a small, fixed
  amount of dom0 CPU regardless of traffic (the ~3% dom0 floor in the
  optimized Fig. 6 curves).
"""

from __future__ import annotations

from repro.vmm.domain import Domain
from repro.vmm.vmexit import VmExitKind, charge_exits


class DeviceModel:
    """The qemu-dm instance backing one HVM guest."""

    def __init__(self, guest: Domain, host):
        self.guest = guest
        #: The owning hypervisor.  Traps book into its live ``ledger``
        #: and ``trace``, so telemetry installed after guest creation
        #: works.
        self.host = host
        self.dom0 = host.dom0
        self.costs = host.costs
        self.opts = host.opts
        #: How many HVM guests share dom0 (set by the hypervisor; the
        #: per-trap cost inflates with contention, Fig. 6's 17%->30%).
        self.contending_vms = 1
        self.msi_mask_traps = 0

    def emulate_msix_mask_write(self, is_mask: bool) -> None:
        """The guest wrote an MSI-X mask or unmask register.

        Charges the full round trip — or only the hypervisor fast path
        when §5.1's acceleration is on.
        """
        kind = VmExitKind.MSIX_MASK if is_mask else VmExitKind.MSIX_UNMASK
        self.msi_mask_traps += 1
        ledger = self.host.ledger
        self.host.trace.emit("dm", "msix_mask" if is_mask else "msix_unmask",
                             domain=self.guest.id,
                             accelerated=self.opts.msi_acceleration)
        if self.opts.msi_acceleration:
            charge_exits(ledger, self.guest, kind,
                         self.costs.xen_msi_accelerated_cycles)
            return
        # Unoptimized: Xen forwards to the device model in dom0.
        charge_exits(ledger, self.guest, kind,
                     self.costs.xen_msi_forward_cycles)
        # dom0 side: wake qemu, emulate, reply.  The per-trap cost
        # inflates as more device models contend for dom0's VCPUs.
        inflation = 1.0 + self.costs.dm_msi_contention_per_vm * (self.contending_vms - 1)
        dom0_cost = self.costs.dm_msi_roundtrip_cycles * inflation
        ledger.charge(self.dom0.name, "dm.msix-roundtrip", dom0_cost)
        self._charge_dom0(dom0_cost)
        # Guest-side stall: TLB/cache pollution from the double context
        # switch (the 16% guest share of Fig. 12's MSI savings).
        ledger.charge(self.guest.name, "guest.msi-stall",
                      self.costs.guest_msi_stall_cycles)
        self.guest.charge_guest(self.costs.guest_msi_stall_cycles)

    def housekeeping_cycles(self, elapsed: float) -> float:
        """Fixed-rate dom0 cost of keeping this device model alive.

        The total device-model housekeeping budget
        (``dm_housekeeping_percent`` of one core) is split across all
        contending device models, so the dom0 floor stays ~flat as VM#
        grows (Fig. 6's ~3% in all optimized cases).
        """
        share = self.costs.dm_housekeeping_percent / 100.0 / max(1, self.contending_vms)
        return share * self.costs.clock_hz * elapsed

    def charge_housekeeping(self, elapsed: float) -> None:
        self._charge_dom0(self.housekeeping_cycles(elapsed))

    def _charge_dom0(self, cycles: float) -> None:
        # Spread device-model work across dom0's VCPUs round-robin by
        # guest id, matching the paper's 8-VCPU pinned dom0.
        vcpu = self.guest.id % len(self.dom0.vcpus)
        self.dom0.charge_guest(cycles, vcpu=vcpu)
