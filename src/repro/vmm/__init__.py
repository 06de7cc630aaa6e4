"""The virtual machine monitor layer.

Models the Xen 3.4 host of the paper's testbed — and the pieces of it
the SR-IOV architecture adds or optimizes:

* :mod:`repro.vmm.hypervisor` — :class:`Xen` (domains, interrupt
  routing, exit accounting) and :class:`NativeHost` (the bare-metal
  baseline).
* :mod:`repro.vmm.domain` — domains, VCPUs, guest kernels.
* :mod:`repro.vmm.vmexit` — the VM-exit kinds behind Fig. 7, booked in
  the hypervisor's cycle ledger.
* :mod:`repro.vmm.virtual_lapic` — virtual LAPIC emulation with the
  §5.2 EOI acceleration.
* :mod:`repro.vmm.device_model` — the dom0 user-level device model with
  the §5.1 MSI mask/unmask acceleration.
* :mod:`repro.vmm.event_channel` — the PVM interrupt mechanism.
* :mod:`repro.vmm.iovm` — the SR-IOV manager: virtual config spaces,
  VF hot-add, guest assignment.
* :mod:`repro.vmm.hotplug` — the virtual ACPI controller DNIS rides on.
* :mod:`repro.vmm.grant_table` — the PV split driver's sharing primitive.
* :mod:`repro.vmm.scheduler` — §6.1's VCPU pinning policy.
* :mod:`repro.vmm.interrupts` — global vector allocation.
"""

from repro.vmm.domain import Domain, DomainKind, GuestKernel, Vcpu
from repro.vmm.event_channel import EventChannelError, EventChannels
from repro.vmm.grant_table import GrantError, GrantTable
from repro.vmm.hotplug import HotplugController
from repro.vmm.hypervisor import NativeHost, Xen
from repro.vmm.kvm import Kvm
from repro.vmm.interrupts import VectorAllocator, VectorExhausted
from repro.vmm.iovm import Iovm, IovmError, VfAssignment
from repro.vmm.scheduler import PinningPolicy
from repro.vmm.virtual_lapic import VirtualLapic
from repro.vmm.vmexit import VmExitKind

__all__ = [
    "Domain",
    "DomainKind",
    "EventChannelError",
    "EventChannels",
    "GrantError",
    "GrantTable",
    "GuestKernel",
    "HotplugController",
    "Iovm",
    "IovmError",
    "Kvm",
    "NativeHost",
    "PinningPolicy",
    "Vcpu",
    "VectorAllocator",
    "VectorExhausted",
    "VfAssignment",
    "VirtualLapic",
    "VmExitKind",
    "Xen",
]
