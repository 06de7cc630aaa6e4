"""Hardware substrate: CPUs, interrupt controllers, IOMMU, PCIe, DMA.

These models carry the state the paper's architecture manipulates:

* :mod:`repro.hw.cpu` — cores with per-label cycle accounting; every CPU
  utilization number in the evaluation is ``cycles / (elapsed x clock)``.
* :mod:`repro.hw.lapic` — the local APIC state machine (IRR/ISR, EOI);
  used both as the physical APIC and as the state behind the virtual
  LAPIC the hypervisor emulates.
* :mod:`repro.hw.msi` — MSI / MSI-X capabilities with per-vector mask and
  pending bits (the registers whose emulation §5.1 accelerates).
* :mod:`repro.hw.iommu` — RID-indexed DMA remapping and protection.
* :mod:`repro.hw.pcie` — configuration space, SR-IOV extended capability,
  bus topology with ACS, and a bandwidth-shared PCIe data path.
* :mod:`repro.hw.dma` — descriptor rings as drivers and NICs see them:
  per-ring slot arrays (buffer address, length, DD bit, packet) with
  slice-based bulk reap and rearm.
"""

from repro.hw.cpu import CpuCore, Executor, Machine
from repro.hw.dma import DescriptorRing, RingFullError
from repro.hw.iommu import Iommu, IommuFault, IoPageTable, PAGE_SIZE
from repro.hw.lapic import Lapic, LapicError
from repro.hw.msi import MsiMessage, MsixCapability

__all__ = [
    "CpuCore",
    "DescriptorRing",
    "Executor",
    "Iommu",
    "IommuFault",
    "IoPageTable",
    "Lapic",
    "LapicError",
    "Machine",
    "MsiMessage",
    "MsixCapability",
    "PAGE_SIZE",
    "RingFullError",
]
