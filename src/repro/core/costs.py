"""The calibrated cost model.

Every cycle count the simulation charges comes from this table.  Values
marked **[paper]** are quoted directly in the text; values marked
**[calibrated]** are free parameters fitted so the model reproduces the
figure-level numbers the paper reports (the fit is documented field by
field and summarized in EXPERIMENTS.md).  Nothing else in the library
hard-codes a cycle count.
"""

from __future__ import annotations

from dataclasses import dataclass


#: The per-event cycle costs, each a whole number, so that guest and
#: exit charges are integer-valued floats whose sums stay far below
#: 2^53: merging or reordering them cannot change a book.  Ratios,
#: rates, percentages and periods stay floats.
CYCLE_FIELDS = (
    "guest_cycles_per_packet", "guest_cycles_per_interrupt",
    "pvm_syscall_surcharge_per_packet", "eoi_emulate_cycles",
    "eoi_accelerated_cycles", "eoi_instruction_check_cycles",
    "other_apic_access_cycles", "external_interrupt_exit_cycles",
    "event_channel_notify_cycles", "dm_msi_roundtrip_cycles",
    "xen_msi_forward_cycles", "guest_msi_stall_cycles",
    "xen_msi_accelerated_cycles", "netback_cycles_per_packet_pvm",
    "netback_hvm_extra_cycles", "netfront_cycles_per_packet",
    "vmdq_dom0_cycles_per_packet", "vmdq_fallback_cycles_per_packet",
)


@dataclass
class CostModel:
    """Cycle costs and testbed constants for the simulation.

    The defaults describe the paper's testbed (§6.1): dual quad-core
    SMT-enabled Xeon 5500 at 2.8 GHz, Xen 3.4, RHEL5U1 dom0.
    """

    # ------------------------------------------------------------------
    # platform
    # ------------------------------------------------------------------
    #: [paper §6.1] 2.8 GHz cores.
    clock_hz: float = 2.8e9
    #: [paper §6.1] 2 sockets x 4 cores x 2 SMT threads.
    core_count: int = 16
    #: [paper §6.1] dom0 runs 8 VCPUs, each pinned to its own thread.
    dom0_vcpus: int = 8

    # ------------------------------------------------------------------
    # guest packet processing (common to native and virtual)
    # ------------------------------------------------------------------
    #: [calibrated] Per-packet receive cost in the guest: driver + IP/UDP
    #: stack + socket + netserver copy-to-user.  4600 cycles x 81.3 kpps
    #: = 13.4% of one core, matching the paper's 145% native total for
    #: ten 957 Mbps streams (Fig. 12's "native" bar) once per-interrupt
    #: cost is added.
    guest_cycles_per_packet: float = 4600.0
    #: [calibrated] Per-interrupt guest cost: IRQ entry/exit, NAPI
    #: scheduling, ring cleanup, timer/cache effects (~5 us at 2.8 GHz).
    guest_cycles_per_interrupt: float = 14000.0
    #: [calibrated] Extra per-packet cost in an x86-64 PV guest: the
    #: user/kernel boundary crossing goes through the hypervisor to
    #: switch page tables (§6.4, citing [19]).  Makes 10-VM PVM consume
    #: slightly more CPU than HVM, as the paper observes.
    pvm_syscall_surcharge_per_packet: float = 600.0

    # ------------------------------------------------------------------
    # HVM interrupt virtualization (§5.2, Fig. 7)
    # ------------------------------------------------------------------
    #: [paper §5.2] Virtual EOI emulation via full fetch-decode-emulate.
    eoi_emulate_cycles: float = 8400.0
    #: [paper §5.2] Virtual EOI via the Exit-qualification fast path.
    eoi_accelerated_cycles: float = 2500.0
    #: [paper §5.2] Optional guest-instruction check on the fast path.
    eoi_instruction_check_cycles: float = 1800.0
    #: [calibrated] Non-EOI APIC-access exits (IRR/ISR window reads,
    #: TPR, interrupt-window handling) per delivered interrupt.  1.13
    #: makes EOI writes 47% of all APIC-access exits, the paper's split.
    other_apic_accesses_per_interrupt: float = 1.13
    #: [calibrated] Cost of one non-EOI APIC-access exit: same
    #: fetch-decode-emulate machinery as an unaccelerated EOI.
    other_apic_access_cycles: float = 8400.0
    #: [calibrated] External-interrupt VM exit + virtual MSI injection
    #: bookkeeping in Xen, per physical interrupt.
    external_interrupt_exit_cycles: float = 2400.0

    # ------------------------------------------------------------------
    # PVM interrupt virtualization (§6.4)
    # ------------------------------------------------------------------
    #: [calibrated] Event-channel notification: cheaper than the virtual
    #: LAPIC path, which is why PVM scales at 1.76%/VM vs HVM's 2.8%.
    event_channel_notify_cycles: float = 5000.0

    # ------------------------------------------------------------------
    # MSI mask/unmask emulation (§5.1, Figs. 6 and 12)
    # ------------------------------------------------------------------
    #: [calibrated] dom0 device-model cost per mask-or-unmask MMIO trap:
    #: domain context switch + qemu wakeup + emulation.  30k cycles x
    #: 2 ops x ~9 kHz reproduces Fig. 6's 17% dom0 at 1 VM.
    dm_msi_roundtrip_cycles: float = 30000.0
    #: [calibrated] The per-extra-VM inflation of that cost (qemu
    #: processes contending for dom0 VCPUs, cache/TLB thrash): +5% per
    #: additional VM reproduces Fig. 6's rise from ~17% to ~30% dom0 at
    #: 7 VMs and Fig. 12's ~208-point dom0 share of the MSI savings.
    dm_msi_contention_per_vm: float = 0.05
    #: [calibrated] Xen-side cost of forwarding the trap to dom0 and
    #: switching back (the 48% Xen share of Fig. 12's MSI savings).
    xen_msi_forward_cycles: float = 8600.0
    #: [calibrated] Guest-side stall per forwarded mask/unmask (TLB and
    #: cache pollution; the 16% guest share of Fig. 12's MSI savings).
    guest_msi_stall_cycles: float = 2900.0
    #: [calibrated] Hypervisor-level mask/unmask emulation after the
    #: §5.1 optimization: a single lightweight VM exit.
    xen_msi_accelerated_cycles: float = 1500.0
    #: [calibrated] Fixed dom0 housekeeping for the device-model
    #: processes backing HVM guests (Fig. 6's ~3% floor after the
    #: optimization).
    dm_housekeeping_percent: float = 2.8

    # ------------------------------------------------------------------
    # PV split driver (§6.5, Figs. 14, 17, 18)
    # ------------------------------------------------------------------
    #: [calibrated] dom0 netback cost per packet for a PVM guest: grant
    #: copy of the frame + ring/event work.  11.1k cycles x 813 kpps =
    #: Fig. 18's 324% dom0.
    netback_cycles_per_packet_pvm: float = 11100.0
    #: [calibrated] Additional per-packet cost when the guest is HVM:
    #: the event-channel-over-LAPIC interrupt conversion layer (§6.5's
    #: 431% vs 324% dom0 comparison).
    netback_hvm_extra_cycles: float = 3700.0
    #: [calibrated] Per-additional-VM inflation of netback's per-packet
    #: cost (60 rings' worth of cache/TLB working set): drives the
    #: throughput decay of Figs. 17-18.
    netback_contention_per_vm: float = 0.008
    #: [calibrated] Netback service threads after the paper's
    #: multi-thread enhancement ("accommodate more threads", §6.5).
    netback_threads: int = 5
    #: [calibrated] Guest-side netfront cost per packet (grant setup +
    #: ring + stack); replaces the VF driver's per-packet cost on the
    #: PV path.
    netfront_cycles_per_packet: float = 6000.0
    #: [calibrated] Single-threaded (unenhanced) netback saturates one
    #: core: 2.8e9 / 11.1k = 252 kpps = 3.1 Gbps, the paper's "only
    #: 3.6 Gbps ... in the case of 10 VMs" for the stock driver.
    netback_threads_unenhanced: int = 1

    # ------------------------------------------------------------------
    # VMDq (§6.6, Fig. 19)
    # ------------------------------------------------------------------
    #: [calibrated] dom0 per-packet cost for a VMDq-queued guest:
    #: classification is in hardware, but dom0 still copies into the
    #: guest and translates addresses.
    vmdq_dom0_cycles_per_packet: float = 9000.0
    #: [calibrated] Per-packet cost for guests beyond the 7 dedicated
    #: queues: conventional PV path plus software bridging on the
    #: shared default queue.
    vmdq_fallback_cycles_per_packet: float = 13000.0

    # ------------------------------------------------------------------
    # inter-VM (§6.3, Figs. 13-14)
    # ------------------------------------------------------------------
    #: [calibrated] CPU copy rate for PV inter-VM packets: dom0 moves
    #: payload memory-to-memory at core speed; 4.5 bytes/cycle keeps the
    #: PV inter-VM ceiling at the paper's 4.3 Gbps with one busy core
    #: plus protocol overhead.
    cpu_copy_bytes_per_cycle: float = 4.5

    # ------------------------------------------------------------------
    # adaptive interrupt coalescing (§5.3)
    # ------------------------------------------------------------------
    #: [paper §5.3] Application buffer count (120832 B socket buffer).
    aic_ap_bufs: int = 64
    #: [paper §5.3] Device-driver descriptor count.
    aic_dd_bufs: int = 1024
    #: [paper §5.3] Redundancy factor giving the hypervisor headroom.
    aic_redundancy: float = 1.2
    #: [calibrated] Lowest acceptable interrupt frequency (lif): bounds
    #: worst-case latency.
    aic_lif_hz: float = 900.0
    #: [paper §5.3] pps is sampled once per second.
    aic_sample_period: float = 1.0

    def validate(self) -> "CostModel":
        """Sanity-check the parameterization; returns self for chaining."""
        for name in CYCLE_FIELDS:
            value = getattr(self, name)
            if not float(value).is_integer():
                raise ValueError(f"CostModel.{name} must be a whole number "
                                 f"of cycles, got {value!r}")
        positive_fields = [
            "clock_hz", "guest_cycles_per_packet", "guest_cycles_per_interrupt",
            "eoi_emulate_cycles", "eoi_accelerated_cycles",
            "external_interrupt_exit_cycles", "event_channel_notify_cycles",
            "dm_msi_roundtrip_cycles", "netback_cycles_per_packet_pvm",
            "netfront_cycles_per_packet", "cpu_copy_bytes_per_cycle",
            "aic_redundancy", "aic_lif_hz", "aic_sample_period",
        ]
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ValueError(f"CostModel.{name} must be positive")
        if self.core_count <= 0 or self.dom0_vcpus <= 0:
            raise ValueError("core counts must be positive")
        if self.dom0_vcpus > self.core_count:
            raise ValueError("dom0 VCPUs cannot exceed physical threads")
        if self.eoi_accelerated_cycles >= self.eoi_emulate_cycles:
            raise ValueError("accelerated EOI must be cheaper than emulated")
        if self.aic_ap_bufs <= 0 or self.aic_dd_bufs <= 0:
            raise ValueError("AIC buffer counts must be positive")
        return self

    @property
    def aic_bufs(self) -> int:
        """bufs = min(ap_bufs, dd_bufs) — equation (1) of §5.3."""
        return min(self.aic_ap_bufs, self.aic_dd_bufs)

    def aic_interrupt_hz(self, pps: float) -> float:
        """The AIC frequency: IF = max(pps x r / bufs, lif).

        Note on the paper's equations: §5.3's eq. (2) reads
        ``t_d x r = bufs/pps`` (so ``IF = pps x r / bufs``), while its
        eq. (3) prints ``IF = pps/(bufs x r)``.  The two are
        inconsistent; only eq. (2)'s form gives the stated effect — "a
        redundant rate r is used to provide time budget for hypervisor
        to intervene", i.e. each interrupt carries ``bufs/r`` packets,
        leaving (r-1)/r of the buffer as overflow headroom.  We
        implement eq. (2).
        """
        if pps < 0:
            raise ValueError("pps must be non-negative")
        return max(pps * self.aic_redundancy / self.aic_bufs, self.aic_lif_hz)
