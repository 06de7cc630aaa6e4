"""The hypervisor: domains, interrupt routing, exit accounting.

:class:`Xen` models the paper's Xen 3.4 host: it owns the machine's
cores, the IOMMU and root complex, the global vector space, and the
per-guest emulation state (virtual LAPICs for HVM, event channels for
PVM, a device model per HVM guest).  Its job on the critical path is
§4.1's interrupt flow:

    physical MSI -> external-interrupt VM exit -> vector lookup ->
    virtual interrupt injection (vLAPIC or event channel) -> guest ISR

:class:`NativeHost` is the same surface with no virtualization: drivers
run against it to produce the paper's "native" baseline (Fig. 12), where
10 VF drivers and the PF driver share one bare-metal OS.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.costs import CostModel
from repro.core.optimizations import OptimizationConfig
from repro.hw.cpu import Machine
from repro.hw.intr_remap import InterruptRemapFault, InterruptRemapper
from repro.hw.iommu import Iommu
from repro.hw.msi import MsiMessage
from repro.hw.pcie.topology import RootComplex
from repro.obs.ledger import CycleLedger
from repro.obs.registry import NULL_REGISTRY
from repro.sim.engine import Simulator
from repro.sim.trace import NULL_TRACER
from repro.vmm.device_model import DeviceModel
from repro.vmm.domain import Domain, DomainKind, GuestKernel
from repro.vmm.event_channel import EventChannels
from repro.vmm.interrupts import VectorAllocator
from repro.vmm.scheduler import PinningPolicy
from repro.vmm.virtual_lapic import VirtualLapic
from repro.vmm.vmexit import VmExitKind, charge_exits


class Xen:
    """The virtual machine monitor."""

    def __init__(
        self,
        sim: Simulator,
        costs: Optional[CostModel] = None,
        opts: Optional[OptimizationConfig] = None,
    ):
        self.sim = sim
        self.costs = (costs or CostModel()).validate()
        self.opts = opts or OptimizationConfig.none()
        self.machine = Machine(sim, self.costs.core_count, self.costs.clock_hz)
        self.iommu = Iommu()
        self.intr_remapper = InterruptRemapper()
        self.root_complex = RootComplex(self.iommu)
        self.vectors = VectorAllocator()
        self.event_channels = EventChannels()
        #: MSIs dropped by interrupt remapping (spoofed or stale vectors).
        self.blocked_interrupts = 0
        #: Install a :class:`repro.sim.trace.Tracer` here to capture the
        #: interrupt path; the default null tracer costs nothing.
        self.trace = NULL_TRACER
        #: Per-(domain, category) cycle attribution.  Always live: it is
        #: the one book of VM exits (Fig. 7's breakdown) and feeds the
        #: Fig. 12 CPU bars, so it is part of the accounting, not
        #: optional telemetry.
        self.ledger = CycleLedger()
        #: Install a :class:`repro.obs.MetricsRegistry` here (usually
        #: via :class:`repro.obs.Telemetry`) to export instruments; the
        #: default null registry hands out no-op instruments.
        self.metrics = NULL_REGISTRY
        self.pinning = PinningPolicy(self.costs.core_count, self.costs.dom0_vcpus)
        self.dom0 = Domain(0, "dom0", DomainKind.DOM0, self.machine,
                           self.pinning.dom0_cores())
        self.domains: Dict[int, Domain] = {0: self.dom0}
        self._next_domain_id = 1
        self._vlapics: Dict[int, VirtualLapic] = {}
        self._device_models: Dict[int, DeviceModel] = {}
        self._measurement_epoch = sim.now

    # ------------------------------------------------------------------
    # domain lifecycle
    # ------------------------------------------------------------------
    def create_guest(self, name: str, kind: DomainKind = DomainKind.HVM,
                     kernel: GuestKernel = GuestKernel.LINUX_2_6_28) -> Domain:
        """Create a single-VCPU guest pinned per the §6.1 policy."""
        if kind is DomainKind.DOM0:
            raise ValueError("dom0 already exists")
        domain_id = self._next_domain_id
        self._next_domain_id += 1
        domain = Domain(domain_id, name, kind, self.machine,
                        [self.pinning.place_guest()], kernel)
        self.domains[domain_id] = domain
        if kind is DomainKind.HVM:
            self._vlapics[domain_id] = VirtualLapic(domain, self)
            self._device_models[domain_id] = DeviceModel(domain, self)
            self._update_dm_contention()
        return domain

    def destroy_guest(self, domain: Domain) -> None:
        domain.running = False
        self.domains.pop(domain.id, None)
        self._vlapics.pop(domain.id, None)
        if self._device_models.pop(domain.id, None) is not None:
            self._update_dm_contention()

    def vlapic(self, domain: Domain) -> VirtualLapic:
        return self._vlapics[domain.id]

    def device_model(self, domain: Domain) -> DeviceModel:
        return self._device_models[domain.id]

    @property
    def hvm_guest_count(self) -> int:
        return len(self._device_models)

    @property
    def is_native(self) -> bool:
        return False

    def _update_dm_contention(self) -> None:
        count = max(1, len(self._device_models))
        for dm in self._device_models.values():
            dm.contending_vms = count

    # ------------------------------------------------------------------
    # the §4.1 interrupt critical path
    # ------------------------------------------------------------------
    def bind_guest_msi(self, domain: Domain,
                       handler: Callable[[int], None],
                       source_rid: Optional[int] = None) -> int:
        """Allocate a global vector for a guest's assigned device.

        ``handler`` is the guest driver's ISR; the hypervisor invokes it
        after injecting the virtual interrupt.  When the device's
        requester ID is given, an interrupt-remapping entry is installed
        so *only that function* may raise the vector.
        """
        vector = self.vectors.allocate(domain.id, handler)
        if source_rid is not None:
            self.intr_remapper.program(source_rid, vector)
        return vector

    def unbind_guest_msi(self, vector: int,
                         source_rid: Optional[int] = None) -> None:
        self.vectors.free(vector)
        if source_rid is not None:
            self.intr_remapper.revoke(source_rid, vector)

    def deliver_msi(self, source, message: MsiMessage) -> None:
        """Entry point wired as the NIC's ``interrupt_sink``.

        ``source`` is the raising function; when it carries a requester
        ID with programmed remapping entries, the interrupt-remapping
        unit validates the (RID, vector) pair and drops spoofed or
        stale messages.  The *vector* then identifies the owning guest,
        per §4.1's global allocation.
        """
        rid = getattr(getattr(source, "pci", None), "rid", None)
        if rid is not None and self.intr_remapper.entries_for(rid):
            try:
                self.intr_remapper.remap(rid, message)
            except InterruptRemapFault:
                self.blocked_interrupts += 1
                self.trace.emit("irq", "blocked", rid=rid,
                                vector=message.vector)
                return
        vector = message.vector
        owner_id = self.vectors.owner(vector)
        if owner_id is None or owner_id not in self.domains:
            self.trace.emit("irq", "orphan", vector=vector)
            return  # interrupt for a torn-down domain: dropped at Xen
        domain = self.domains[owner_id]
        self.trace.begin("irq", "deliver", vector=vector, domain=owner_id)
        self.account_interrupts(domain)
        if domain.is_hvm:
            self._vlapics[domain.id].inject(vector)
        handler = self.vectors.handler(vector)
        if handler is not None:
            handler(vector)
        self.trace.end("irq", "deliver", vector=vector)

    def account_interrupts(self, domain: Domain, count: int = 1) -> None:
        """Charge ``count`` MSIs delivered to ``domain``: the
        external-interrupt exit and, for a PVM guest, the event-channel
        upcall that signals it instead of a vLAPIC interrupt (§6.4)."""
        costs = self.costs
        charge_exits(self.ledger, domain, VmExitKind.EXTERNAL_INTERRUPT,
                     costs.external_interrupt_exit_cycles * count, count)
        if domain.is_pvm:
            charge_exits(self.ledger, domain, VmExitKind.HYPERCALL,
                         costs.event_channel_notify_cycles * count, count)

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def start_measurement(self) -> None:
        """Zero all accounts; utilization reads cover from here on."""
        self.machine.start_measurement()
        self.ledger.reset()
        for domain in self.domains.values():
            domain.reset_accounting()
        self._measurement_epoch = self.sim.now

    def end_measurement(self) -> float:
        """Close the window: charge rate-based costs; return elapsed."""
        elapsed = self.sim.now - self._measurement_epoch
        if elapsed > 0:
            for dm in self._device_models.values():
                dm.charge_housekeeping(elapsed)
        return elapsed

    @property
    def measurement_elapsed(self) -> float:
        return self.sim.now - self._measurement_epoch

    def utilization_breakdown(self) -> Dict[str, float]:
        """Per-account CPU percentages (xentop convention)."""
        return self.machine.utilization_breakdown(self.measurement_elapsed)


class NativeHost:
    """Bare metal: the same driver-facing surface, no virtualization.

    Used for the paper's native baseline, "where 10 VF drivers run in
    the same OS, with PF drivers on top of bare metal" (§6.2).
    """

    def __init__(self, sim: Simulator, costs: Optional[CostModel] = None):
        self.sim = sim
        self.costs = (costs or CostModel()).validate()
        self.opts = OptimizationConfig.none()
        self.machine = Machine(sim, self.costs.core_count, self.costs.clock_hz)
        self.iommu = Iommu()
        self.root_complex = RootComplex(self.iommu)
        self.vectors = VectorAllocator()
        # The same observability surface as Xen, so drivers can trace
        # and count identically on bare metal (no exits ever land in
        # the ledger's ``exit.*`` categories here).
        self.trace = NULL_TRACER
        self.ledger = CycleLedger()
        self.metrics = NULL_REGISTRY
        self._next_domain_id = 1
        self._measurement_epoch = sim.now

    @property
    def is_native(self) -> bool:
        return True

    def create_guest(self, name: str, kind: DomainKind = DomainKind.NATIVE,
                     kernel: GuestKernel = GuestKernel.LINUX_2_6_28) -> Domain:
        """A "guest" here is just a driver context on the host OS."""
        domain_id = self._next_domain_id
        self._next_domain_id += 1
        core = (domain_id - 1) % self.costs.core_count
        domain = Domain(domain_id, name, DomainKind.NATIVE, self.machine,
                        [core], kernel)
        return domain

    def bind_guest_msi(self, domain: Domain,
                       handler: Callable[[int], None],
                       source_rid: Optional[int] = None) -> int:
        """Native binding: no remapping unit between device and OS."""
        return self.vectors.allocate(domain.id, handler)

    def unbind_guest_msi(self, vector: int,
                         source_rid: Optional[int] = None) -> None:
        self.vectors.free(vector)

    def deliver_msi(self, source, message: MsiMessage) -> None:
        """Native interrupt delivery: straight to the ISR, no exits."""
        handler = self.vectors.handler(message.vector)
        if handler is not None:
            handler(message.vector)

    def start_measurement(self) -> None:
        self.machine.start_measurement()
        self.ledger.reset()
        self._measurement_epoch = self.sim.now

    def end_measurement(self) -> float:
        return self.sim.now - self._measurement_epoch

    @property
    def measurement_elapsed(self) -> float:
        return self.sim.now - self._measurement_epoch

    def utilization_breakdown(self) -> Dict[str, float]:
        return self.machine.utilization_breakdown(self.measurement_elapsed)
