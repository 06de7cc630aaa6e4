"""The fluid (collapsed-window) fast path for steady-state streams.

A netperf RX stream in steady state is metronomic: every burst interval
a tick offers ``int(pps * interval + carry)`` packets, the VF accepts
them into its ring, and once per ITR window the throttle fires one
interrupt that drains everything since the last fire.  Exact simulation
spends one event per tick plus one per fire; for the fig. 15/16 sweeps
that is ~6 events per ITR window, every one of them dominated by
dispatch and object traffic rather than interesting state changes.

:class:`FluidFlow` collapses the *entire* steady-state loop.  While
attached, the flow schedules **no events at all**: the stream's ticks,
the throttle's fires and the guest's interrupt handlers become a
virtual event queue replayed, in the exact engine's event order, at
*settle points*: measurement boundaries, ITR sample ticks, run end, and
any transition that leaves the fast path.  Each replayed virtual event
bumps ``Simulator.collapsed_events`` so that ``events_executed +
collapsed_events`` equals the exact run's event count.

Per virtual event the replay keeps only order-sensitive state: the
tick clock and carry, the ring image, the throttle clock, the vLAPIC's
fractional access carry and the send times each interrupt drains.  The
rest of the §4.1 chain is booked once per settle with the window's
totals, through the entry points the exact path calls once per event:
``PcieDataPath.book``, ``_NetFunction.account_rx``,
``Xen.account_interrupts``, ``VirtualLapic.account``,
``NapiContext.account``, ``VfDriver.account_isr`` and
``NetserverApp.deliver_fluid`` (which feeds ``NetserverApp.account``).

**Exactness contract.**  For an eligible flow the collapse is not an
approximation: every counter, cycle charge, latency accumulator and
float operation lands bit-identically to the exact run, so the
:class:`~repro.core.experiment.RunResult` is byte-identical.  The
argument needs three properties, all enforced as eligibility gates
(:meth:`FluidFlow.try_attach`):

* *per-flow state is disjoint* — one stream per port (or a merged port
  group), per-VM rings, meters, apps, vLAPICs and ledger cells, so
  replaying one flow's events contiguously touches no shared
  accumulator...
* *...except integer ones* — cycle charges can meet on a shared
  account (two guests pinned to one core both charge ``xen``), and a
  window's charges land as ``count × cost``, so every replayed cost
  must be integer-valued: integer-valued float sums are exact in any
  grouping.
* *no observer sees stale state between settle points* — live
  ``irq``/``apic``/``dma`` tracing keeps a flow exact (per-event trace
  records carry timestamps), while a live metrics registry is booked at
  settle points like any other counter.  Every event source that could
  read or perturb flow state mid-run holds a settle hook (ITR sample
  ticks, measurement boundaries, driver stop, device reset,
  ``set_rate``, a second stream attaching), and an armed fault plan
  keeps every stream exact.  So does a vLAPIC that is not idle: the
  replay assumes each interrupt's fire -> ack -> EOI cycle closes.

**Replay order** is one rule: ``(time, virtual seq)``, the exact
engine's ``(time, handle seq)`` tie-break.  Every virtual *schedule* —
a tick's reschedule, a fire's arming, a queued inbound record — draws
its seq from the testbed's one counter (``Testbed.virtual_seq``) at the
point of the replay where the exact engine creates that handle, so the
seqs of one replay order as the engine's would.  The merged loops of
:class:`FluidPortGroup` and :class:`FluidTxFlow` compare that key
directly.  The solo loop of :meth:`FluidFlow._advance` takes the one
shortcut the rule covers: a fire due at a tick's instant was armed by
an earlier tick, or by the tick that re-armed this one before its
reschedule, so the fire runs first and the tick's seq is drawn once
per settle.  An *inline* fire (throttle already past due when a tick
requests) replays inside its tick, which is also where the exact run
executes it.  Between ``run()`` calls the engine's inclusive horizon
has executed every event at ``now``, so settle points and decollapse
replay inclusively there; inside an event they stop strictly before
``now``.

Anything dynamic — a switch reprogramming, a device reset, a rate
change, a stream the port group cannot admit — triggers
:meth:`FluidFlow.decollapse`, which replays up to the present,
materializes undrained packets into the real descriptor ring,
re-creates the pending virtual handles as real events in replay order
(:func:`rearm`), and resumes exact per-event simulation mid-run with no
observable seam.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from itertools import islice
from operator import itemgetter
from typing import List, Optional, Tuple

from repro.devices.igb82576 import TX_BACKLOG_LIMIT, VECTOR_RXTX


def rearm(sim, pending) -> None:
    """Re-create pending virtual handles as real events.

    ``pending`` holds ``(time, virtual seq, arm)`` entries; each ``arm()``
    schedules one handle.  Scheduling them in ``(time, virtual seq)``
    order gives their fresh engine seqs the exact run's relative order.
    """
    for _time, _seq, arm in sorted(pending, key=itemgetter(0, 1)):
        arm()


class FluidFlow:
    """One collapsed client->VF stream on an otherwise idle port."""

    def __init__(self, bed, guest, stream):
        self.bed = bed
        self.sim = bed.sim
        self.stream = stream
        self.driver = guest.driver
        self.vf = guest.vf
        self.port = guest.port
        #: The transmitting driver, when the flow's own stream sends
        #: through this host (see :class:`FluidTxFlow`).
        self.tx_driver = None
        self.active = False
        #: Next unapplied tick's absolute time (advances by exactly the
        #: float additions the exact reschedule chain performs).
        self._t_next = 0.0
        #: The stream's fractional-packet carry, owned while collapsed.
        self._carry = 0.0
        #: The virtual image of ``InterruptThrottle._pending``: the
        #: absolute due time of the scheduled fire, or None.
        self._fire_at: Optional[float] = None
        #: The testbed's virtual seq counter, and the seqs of the armed
        #: tick and fire handles (see the module docstring).
        self._seqs = bed.virtual_seq
        self._tick_seq = 0
        self._fire_seq = 0
        #: The per-port :class:`FluidPortGroup` when other collapsed
        #: streams share this port (None for a solo flow).
        self.group: Optional["FluidPortGroup"] = None
        #: Frozen ring capacity (device-owned descriptors after refill).
        self._capacity = 0
        #: Ring-accepted packets not yet drained by an interrupt.
        self._backlog = 0
        #: Packets drained by replayed fires since begin(): each one
        #: advanced head (consume), _clean (reap) and tail (rearm) in
        #: the exact run, so decollapse rotates the cursors by this.
        self._drained_total = 0
        #: Runs of packets accepted since the last flush: how many, and
        #: their send time.  Runs from ``_undrained`` on are in the ring.
        self._pending_n: List[int] = []
        self._pending_t: List[float] = []
        self._undrained = 0
        #: The received packets' header as ``acquire_burst`` takes it:
        #: (src, dst, size, vlan, protocol, flow_id).
        self._rx_header: Optional[tuple] = (
            stream.src, stream.dst, stream.mtu, stream.vlan,
            stream.protocol, stream.flow_id)
        # -- the window's books, handed to the layers at _flush() --
        self._sent = 0
        self._wire_rx = 0
        self._offered = 0
        self._accepted = 0
        #: DMA transfers not yet booked (times, sizes); a port group's
        #: members share one pair, booking in merged order.
        self._dma: Tuple[List[float], List[int]] = ([], [])
        #: Interrupts replayed since the last flush: when each fired,
        #: how many packets it drained, and where its pending runs end.
        self._fired: Tuple[List[float], List[int], List[int]] = ([], [], [])
        self._apic_other = 0
        self._generation = -1
        #: The guest's virtual LAPIC (HVM under Xen); set at attach.
        self._vlapic = None
        #: The ``try_attach`` gate that refused collapse (diagnostics;
        #: None after a successful attach).
        self.reject_gate: Optional[str] = None

    def _reject(self, gate: str) -> bool:
        """Record which eligibility gate refused this flow."""
        self.reject_gate = gate
        self.bed.record_fluid_rejection(gate)
        return False

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def try_attach(self) -> bool:
        """Install the flow's hooks if the exactness contract can hold.

        Returns False (leaving the stream fully exact) otherwise.  All
        checks are side-effect free; a refusal names the failing gate in
        :attr:`reject_gate` and the testbed's rejection counters.
        """
        stream = self.stream
        driver = self.driver
        vf = self.vf
        port = self.port
        platform = driver.platform
        domain = driver.domain
        # Fault plans perturb state at injector-chosen instants, outside
        # the contract: every stream of a faulted run stays exact.
        if getattr(self.bed, "injector", None) is not None:
            return self._reject("faults")
        tx_gate = self._tx_gate()
        if tx_gate is not None:
            return self._reject(tx_gate)
        if stream.jitter != 0:
            return self._reject("jitter")
        # The bulk replay loop assumes every tick carries packets.
        if stream.pps * stream.burst_interval < 1.0:
            return self._reject("sparse_ticks")
        if not (vf.enabled and driver.running):
            return self._reject("not_running")
        if port.rx_corrupt_budget != 0:
            return self._reject("rx_corruption")
        # Per-event trace records carry timestamps, which a batched
        # flush cannot reproduce.
        trace = platform.trace
        if trace.is_enabled("irq") or trace.is_enabled("apic"):
            return self._reject("tracer")
        if port.datapath.trace.is_enabled("dma"):
            return self._reject("tracer")
        # A quiesced throttle is the state the virtual image assumes.
        if vf.throttle._pending is not None:
            return self._reject("throttle_pending")
        # The replayed ISR is the 2.6.28 shape: no per-interrupt MSI-X
        # mask/unmask emulation (§5.1's 2.6.18 guests stay exact).
        if (domain.is_hvm and not platform.is_native
                and domain.kernel.masks_msi_per_interrupt):
            return self._reject("msi_mask_emulation")
        # The interrupt plumbing the fire replay reproduces must be in
        # its steady configured state: vector bound, MSI-X entry
        # programmed and unmasked.
        vector = driver.rx_vector
        if vector is None or platform.vectors.handler(vector) is None:
            return self._reject("vector_unbound")
        entry = vf.msix.table[VECTOR_RXTX]
        if (entry.masked or entry.message is None
                or entry.message.vector != vector):
            return self._reject("msix_entry")
        if not platform.is_native:
            if platform.vectors.owner(vector) != domain.id:
                return self._reject("vector_owner")
            if domain.id not in platform.domains:
                return self._reject("domain_gone")
            # The remap the exact chain performs must succeed (a
            # missing IRTE would *block* the interrupt — not eligible).
            rid = vf.pci.rid
            if (rid is None
                    or platform.intr_remapper.lookup(rid, vector) is None):
                return self._reject("irte_missing")
            if domain.is_hvm:
                self._vlapic = platform.vlapic(domain)
                if self._lapic_busy():
                    return self._reject("lapic_busy")
            elif not domain.is_pvm:
                return self._reject("domain_kind")
        route_gate = self._route_gate()
        if route_gate is not None:
            return self._reject(route_gate)
        if not self._ring_clean_and_mapped():
            return self._reject("ring_dirty")
        self._generation = port.switch.generation
        self.reject_gate = None
        stream._fluid = self
        driver._fluid = self
        if hasattr(self.tx_driver, "_fluid"):
            self.tx_driver._fluid = self
        # A VTEITR write (adaptive sample ticks, or the guest itself)
        # settles the open window before the new interval lands.
        vf.fluid_listener = self.settle_strict
        return True

    def _tx_gate(self) -> Optional[str]:
        """The transmit-side gates of flows whose own stream sends
        (:class:`FluidTxFlow`); the RX-only flow has none."""
        return None

    def _route_gate(self) -> Optional[str]:
        """Where must the stream's packets land for the replay to be
        right?  For the single-host RX flow: on this stream's own VF —
        no flooding, no uplink, no PF.  Subclasses with a different
        wire-side replay (the cluster TX flow) override this."""
        if self.port.switch.resolve_unicast(
                self.stream.dst, self.stream.vlan) != self.vf.function_index:
            return "switch_dst"
        return None

    def _lapic_busy(self) -> bool:
        """Is the guest's LAPIC anything but idle for the flow's vector?

        The replay leaves IRR/ISR untouched, which is exact only when
        every interrupt's fire -> ack -> EOI cycle closes: nothing
        pending or in service, and the TPR below the vector's class.
        """
        if self._vlapic is None:
            return False
        lapic = self.driver.domain.lapic
        return bool(lapic._irr or lapic._isr
                    or (lapic.tpr >> 4) >= (self.driver.rx_vector >> 4))

    def _ring_clean_and_mapped(self) -> bool:
        """The ring must be fully posted and clean (the post-probe
        steady state the frozen-cursor model assumes), with every slot's
        buffer IOMMU-mapped writable (so the exact path would never
        fault): the VF's own verdicts, the ones its exact receive
        path reads."""
        ring = self.vf.rx_ring
        size = ring.size
        if ring.head != ring._clean:
            return False
        if (ring.tail - ring.head) % size != size - 1:
            return False
        if any(ring.done):
            return False
        if self.port.iommu is not None:
            verdicts = self.vf.rx_verdicts()
            if verdicts is None or 0 in verdicts:
                return False
        return True

    def _still_valid(self) -> bool:
        """The cheap revalidation of the dynamic gates, run at every
        settle point.  In eligible scenarios everything that could flip
        one of these flips it through a hooked path (which decollapses
        at the instant of the change); this check is the backstop."""
        return (self.port.switch.generation == self._generation
                and self.vf.enabled
                and self.driver.running
                and self.port.rx_corrupt_budget == 0
                and not self._lapic_busy())

    # ------------------------------------------------------------------
    # lifecycle (driven by NetperfStream.start/stop)
    # ------------------------------------------------------------------
    def begin(self) -> bool:
        """Collapse from the stream's start; False falls back to exact.

        Schedules nothing: from here until the next settle point the
        flow exists only as the virtual clock pair (next tick, pending
        fire).
        """
        if self.active:
            return True
        # A port group's streams collapse together or not at all.
        group = self.group
        if not (self._still_valid() and self._ring_clean_and_mapped()
                and (group is None or group.admits(self))):
            if group is not None:
                group.evict()
            return False
        ring = self.vf.rx_ring
        self.active = True
        self._carry = self.stream._carry
        self._backlog = 0
        self._drained_total = 0
        self._pending_n = []
        self._pending_t = []
        self._undrained = 0
        self._fire_at = None
        self._capacity = (ring.tail - ring.head) % ring.size
        self._t_next = self.sim.now + self.stream.burst_interval
        self._tick_seq = next(self._seqs)
        return True

    def detach(self) -> None:
        """Unhook every attach-time installation (a port or host whose
        streams all run exact from now on)."""
        for owner in (self.stream, self.driver, self.tx_driver):
            if getattr(owner, "_fluid", None) is self:
                owner._fluid = None
        if self.vf.fluid_listener == self.settle_strict:
            self.vf.fluid_listener = None
        if getattr(self.port, "_fluid_tx", None) is self:
            self.port._fluid_tx = None

    # ------------------------------------------------------------------
    # the virtual events
    # ------------------------------------------------------------------
    def _next_ticks(self, end: float,
                    inclusive: bool) -> Tuple[List[int], List[float]]:
        """``NetperfStream._tick``'s float operations for every tick
        before ``end`` (or at it, when ``inclusive``): the packet counts
        and tick times, with the carry and the reschedule."""
        stream = self.stream
        interval = stream.burst_interval
        quota = stream.pps * interval
        carry = self._carry
        t = self._t_next
        counts: List[int] = []
        times: List[float] = []
        while t < end or (inclusive and t == end):
            total = quota + carry
            count = int(total)
            carry = total - count
            counts.append(count)
            times.append(t)
            t = t + interval
        if times:
            self._carry = carry
            self._t_next = t
        return counts, times

    def _tick(self) -> None:
        """One client tick: ``NetperfStream._tick`` -> ``wire_receive``
        -> ``device_receive`` -> ``InterruptThrottle.request``, then the
        reschedule (after the sink, so a fire armed here comes first)."""
        counts, times = self._next_ticks(self._t_next, True)
        self._receive(counts, times)
        self._offer(counts, times)
        self._tick_seq = next(self._seqs)

    def _receive(self, counts: List[int], times: List[float]) -> None:
        """``wire_receive``'s counter and host-ward DMA booking for a
        run of client ticks (nothing of it depends on the interrupt
        side).  Every tick carries packets: the ``sparse_ticks`` gate."""
        sent = sum(counts)
        self._sent += sent
        self._wire_rx += sent
        mtu = self.stream.mtu
        dma_at, dma_bytes = self._dma
        dma_at.extend(times)
        dma_bytes.extend([count * mtu for count in counts])

    def _offer(self, counts: List[int], times: List[float]) -> None:
        """A run of client ticks reaching the VF's ring, then the first
        tick's throttle request (room only shrinks along the run, so if
        any tick landed packets, the first did).  The run must end
        before the fire that request arms, or be a single tick."""
        if self._accept(counts, times) and self._fire_at is None:
            self._request(times[0])

    def _accept(self, counts, times) -> int:
        """``device_receive``'s accept/drop decision for a run of offers
        — ``counts[i]`` packets sent at ``times[i]`` — against the
        frozen ring image; returns how many packets found a descriptor.
        The run must not span a throttle request: an inline fire drains
        the ring between two offers."""
        room = self._capacity - self._backlog
        pending_n = self._pending_n
        pending_t = self._pending_t
        offered = sum(counts)
        if offered <= room and 0 not in counts:
            pending_n.extend(counts)
            pending_t.extend(times)
            taken = offered
        else:
            taken = 0
            for count, created_at in zip(counts, times):
                accepted = room if room < count else count
                if accepted <= 0:
                    continue
                room -= accepted
                taken += accepted
                pending_n.append(accepted)
                pending_t.append(created_at)
        self._offered += offered
        self._accepted += taken
        self._backlog += taken
        return taken

    def _request(self, now: float) -> None:
        """``InterruptThrottle.request`` against the virtual pending
        slot: fire inline when past due, else arm the virtual timer."""
        if self._fire_at is not None:
            return
        throttle = self.vf.throttle
        due = throttle._last_fired + throttle.interval
        if now >= due:
            self._fire(now)
        else:
            self._fire_at = due
            self._fire_seq = next(self._seqs)

    def _fire(self, now: float) -> None:
        """One interrupt, reduced to its order-sensitive state: the
        throttle clock, the vLAPIC's fractional access carry, and the
        drained runs whose latency the app will sum.  Its counters
        and charges are booked at the next :meth:`_flush`."""
        self.vf.throttle._last_fired = now
        times, drained, ends = self._fired
        times.append(now)
        drained.append(self._backlog)
        self._undrained = len(self._pending_n)
        ends.append(self._undrained)
        self._backlog = 0
        if self._vlapic is not None:
            self._apic_other += self._vlapic.other_accesses()

    def _flush(self) -> None:
        """Hand the replayed window's totals to each layer's accounting
        entry point — the same calls the exact path makes per event."""
        sent = self._sent
        if sent:
            self._sent = 0
            stream = self.stream
            stream.sent.value += sent
            stream.sent_bytes.value += sent * stream.mtu
        if self._wire_rx:
            self.port.wire_rx_packets += self._wire_rx
            self._wire_rx = 0
        dma_at, dma_bytes = self._dma
        if dma_at:
            self.port.datapath.book(dma_at, dma_bytes)
            dma_at.clear()
            dma_bytes.clear()
        offered = self._offered
        if offered:
            accepted = self._accepted
            self._offered = self._accepted = 0
            self.vf.account_rx(offered, accepted,
                               accepted * self._rx_header[2],
                               offered - accepted)
        fired = self._fired
        batches = fired[1]
        if not batches:
            return
        driver = self.driver
        vf = self.vf
        count = len(batches)
        drained = sum(batches)
        budget = driver.napi.budget
        exhausted = sum(batch // budget for batch in batches)
        vf.throttle.fired += count
        vf.msix.interrupts_posted += count
        # The rearm mirror: reaped descriptors return to the device.
        vf.rx_ring.posted += drained
        self._drained_total += drained
        platform = driver.platform
        if not platform.is_native:
            platform.intr_remapper.remapped += count
            platform.account_interrupts(driver.domain, count)
            if self._vlapic is not None:
                self._vlapic.account(self._apic_other, count)
                self._apic_other = 0
        # poll_all per interrupt: full budget-sized polls plus the final
        # short one (which ends the softirq loop).
        driver.napi.account(count + exhausted, drained, exhausted)
        accepted = 0
        pending_n = self._pending_n
        pending_t = self._pending_t
        if drained:
            header = self._rx_header
            accepted = driver.app.deliver_fluid(fired, pending_n, pending_t,
                                                header[2], header[4])
        del pending_n[:self._undrained]
        del pending_t[:self._undrained]
        self._undrained = 0
        driver.account_isr(batches, accepted)
        for column in fired:
            column.clear()

    # ------------------------------------------------------------------
    # the virtual event loop
    # ------------------------------------------------------------------
    def _advance(self, limit: float, inclusive: bool) -> None:
        """Replay the flow's virtual events up to ``limit``, then flush.

        Merges the tick clock and the pending-fire clock in the exact
        engine's order: at equal timestamps the scheduled fire runs
        first (the solo shortcut of the module docstring).  Each
        replayed virtual event counts once in ``collapsed_events``; a
        fire that the exact run executes *inline* within a tick replays
        inside that tick and adds nothing extra.  When other collapsed
        streams share the port, the whole group advances together in
        merged order (shared DMA-pipe bookings must interleave exactly).
        """
        group = self.group
        if group is not None and group.needs_merge():
            group.advance(limit, inclusive)
            return
        # Ticks do not depend on interrupts, so the tick clock runs to
        # the horizon first; the fires then split its ticks into
        # interrupt windows, each offered to the ring as one run.
        counts, times = self._next_ticks(limit, inclusive)
        self._receive(counts, times)
        throttle = self.vf.throttle
        end = len(times)
        collapsed = end
        i = 0
        while True:
            fire_at = self._fire_at
            if fire_at is None:
                if i == end:
                    break
                due = throttle._last_fired + throttle.interval
                if times[i] >= due:
                    # Past due: this tick's request fires inline.
                    self._offer(counts[i:i + 1], times[i:i + 1])
                    i += 1
                    continue
                # The first tick landing packets arms a fire at due.
                j = bisect_left(times, due, i)
                self._offer(counts[i:j], times[i:j])
                i = j
                fire_at = self._fire_at
                if fire_at is None:
                    continue
            else:
                # Ticks before the armed fire only offer packets.
                j = bisect_left(times, fire_at, i)
                if j > i:
                    self._accept(counts[i:j], times[i:j])
                    i = j
            if not (fire_at < limit or (inclusive and fire_at == limit)):
                break
            # The fire runs before any tick at its instant.
            self._fire_at = None
            self._fire(fire_at)
            collapsed += 1
        if end:
            # The last replayed tick's reschedule, after every fire it
            # or an earlier tick armed.
            self._tick_seq = next(self._seqs)
        self.sim.collapsed_events += collapsed
        self._flush()

    # ------------------------------------------------------------------
    # settle points
    # ------------------------------------------------------------------
    def settle(self) -> None:
        """Catch up through the present, *inclusively*: the engine's
        ``run(until)`` horizon is inclusive, so at a run boundary every
        virtual event with time <= now has executed in the exact run.
        Undrained runs stay pending — their packets sit unreaped in
        the exact run's ring too."""
        self._catch_up(True)

    def settle_strict(self) -> None:
        """Catch up to — but not through — the present.  For hooks at
        the top of real events whose handles predate any same-time
        virtual event (the ITR sample tick, scheduled a full period
        ago): the exact run executes that event *before* equal-time
        ticks or fires.  Between runs it is inclusive, like
        :meth:`settle`.  Also the VTEITR register hook: future
        replayed requests read the throttle live, so only the open
        window needs replaying before a new interval lands."""
        self._catch_up(False)

    def _catch_up(self, inclusive: bool) -> None:
        if not self.active:
            return
        if not self._still_valid():
            self.decollapse()
            return
        sim = self.sim
        self._advance(sim.now, inclusive or not sim._running)

    # ------------------------------------------------------------------
    # leaving the fast path
    # ------------------------------------------------------------------
    def decollapse(self) -> None:
        """Fall back to exact per-event simulation, seamlessly.

        Replays every virtual event an exact run would already have
        executed (before now; through now between runs), materializes
        the undrained packets into the real descriptor ring, hands the
        carry back to the stream, and re-creates its pending handles —
        the ``_tick`` chain, a pending throttle fire, in-flight
        deliveries — as real events (:func:`rearm`).
        """
        if not self.active:
            return
        group = self.group
        if group is not None and group.needs_merge():
            # Any member leaving the fast path takes the whole port
            # with it: the remaining members' lazy DMA bookings would
            # interleave with this stream's now-exact events.
            group.decollapse_all()
            return
        self.active = False
        sim = self.sim
        self._advance(sim.now, not sim._running)
        rearm(sim, self._finish_decollapse())

    def _finish_decollapse(self) -> list:
        """Materialize state and return the pending handles to re-create,
        as :func:`rearm` entries (the replay up to the present must
        already have run)."""
        self._materialize()
        stream = self.stream
        stream._carry = self._carry
        pending = []
        if stream._running:
            pending.append((self._t_next, self._tick_seq, self._arm_tick))
        if self._fire_at is not None and self.vf.throttle._pending is None:
            pending.append((self._fire_at, self._fire_seq, self._arm_fire))
        return pending

    def _arm_tick(self) -> None:
        stream = self.stream
        stream._tick_handle = self.sim.schedule_at(self._t_next, stream._tick)

    def _arm_fire(self) -> None:
        throttle = self.vf.throttle
        throttle._pending = self.sim.schedule_at(self._fire_at,
                                                 throttle._do_fire)

    def _materialize(self) -> None:
        """Turn pending runs into real ring occupancy."""
        ring = self.vf.rx_ring
        mask = ring._mask
        # Every drained packet advanced head (consume), _clean (reap)
        # and tail (rearm) once in the exact run.  Slot programming is
        # position-fixed and reaped slots are clean, so rotating the
        # cursors is the whole difference.
        spin = self._drained_total & mask
        ring.head = (ring.head + spin) & mask
        ring.tail = (ring.tail + spin) & mask
        ring._clean = (ring._clean + spin) & mask
        self._drained_total = 0
        total = 0
        if self._pending_n:
            # (The replay flushed before this: every run is undrained.)
            src, dst, size, vlan, protocol, flow_id = self._rx_header
            acquire = self.stream.pool.acquire_burst
            for accepted, created_at in zip(self._pending_n,
                                            self._pending_t):
                for packet in acquire(accepted, src, dst, size, vlan,
                                      protocol, flow_id, created_at):
                    ring.consume(packet)
                total += accepted
        # account_rx counted these completions at settle time and
        # consume() just recounted them.
        ring.completed -= total
        self._pending_n = []
        self._pending_t = []
        self._backlog = 0


class FluidPortGroup:
    """Merged replay for several collapsed streams sharing one port.

    Per-flow state (rings, meters, apps, vLAPICs, ledger cells) is
    disjoint, but the port's DMA pipe is not: its busy horizon evolves
    per booking, so the flows' virtual events must replay in the exact
    engine's global order, not flow-by-flow.  The group merges its
    members' armed ticks and fires by ``(time, virtual seq)``; a joiner
    draws its first seq only after the members have replayed up to its
    start (:meth:`admits`).
    """

    def __init__(self, bed, port):
        self.bed = bed
        self.port = port
        #: Attach-ordered members (the eviction set).
        self.members: List[FluidFlow] = []
        #: Once evicted, the port's streams run exact; later streams
        #: must not collapse beside them.
        self.dead = False
        #: The members' deferred DMA bookings, in merged order.
        self._dma: Tuple[List[float], List[int]] = ([], [])

    def add(self, flow: FluidFlow) -> None:
        self.members.append(flow)
        flow.group = self
        flow._dma = self._dma

    def _actives(self) -> List[FluidFlow]:
        return [flow for flow in self.members if flow.active]

    def needs_merge(self) -> bool:
        """More than one active member: replay must interleave."""
        return sum(flow.active for flow in self.members) > 1

    def admits(self, flow: FluidFlow) -> bool:
        """May ``flow`` begin collapsing beside the other members?

        The members replay up to now first, so the joiner's first tick
        seq postdates every handle they armed, as in the exact engine.
        Refused when a member's stream runs exact (its real bookings
        would interleave with collapsed ones), or when ``flow`` starts
        inside an event while a member has a virtual event at exactly
        now: the exact engine may run that one on either side of this
        event.
        """
        actives = self._actives()
        if actives:
            # One settle replays every active member (merged or solo).
            actives[0].settle_strict()
        sim = flow.sim
        for member in self.members:
            if member.active:
                if sim._running and sim.now in (member._t_next,
                                                member._fire_at):
                    return False
            elif member is not flow and member.stream._running:
                return False
        return True

    # ------------------------------------------------------------------
    # the merged virtual event loop
    # ------------------------------------------------------------------
    def advance(self, limit: float, inclusive: bool) -> None:
        actives = self._actives()
        if all(flow._still_valid() for flow in actives):
            self._advance_members(actives, limit, inclusive)
        else:
            self.decollapse_all()

    def _advance_members(self, actives: List[FluidFlow], limit: float,
                         inclusive: bool) -> None:
        collapsed = 0
        while True:
            best = None
            best_key = None
            fire = False
            for flow in actives:
                key = (flow._t_next, flow._tick_seq)
                if best_key is None or key < best_key:
                    best_key, best, fire = key, flow, False
                if flow._fire_at is not None:
                    key = (flow._fire_at, flow._fire_seq)
                    if key < best_key:
                        best_key, best, fire = key, flow, True
            t = best_key[0]
            if not (t < limit or (inclusive and t == limit)):
                break
            if fire:
                best._fire_at = None
                best._fire(t)
            else:
                best._tick()
            collapsed += 1
        actives[0].sim.collapsed_events += collapsed
        for flow in actives:
            flow._flush()

    # ------------------------------------------------------------------
    # leaving the fast path
    # ------------------------------------------------------------------
    def decollapse_all(self) -> None:
        """Take every active member exact together.

        One member's exact events would interleave with the others'
        lazy DMA bookings, so a port group only ever leaves the fast
        path whole: replay all members (merged) up to now, then
        materialize each and re-create their handles in replay order.
        """
        actives = self._actives()
        if not actives:
            return
        sim = actives[0].sim
        for flow in actives:
            flow.active = False
        self._advance_members(actives, sim.now, not sim._running)
        rearm(sim, [entry for flow in actives
                    for entry in flow._finish_decollapse()])

    def evict(self) -> None:
        """Decollapse everything and unhook every member for good —
        a stream on the port cannot collapse beside the others, so the
        port's streams (current and future) all run exact."""
        self.dead = True
        self.decollapse_all()
        bed = self.bed
        for flow in self.members:
            flow.group = None
            flow.detach()
            bed.record_fluid_rejection("port_evicted")
        self.members.clear()


class FluidTxFlow(FluidFlow):
    """A collapsed flow whose stream transmits through this host's own
    TX path: the inter-VM loopback (:class:`FluidLoopbackFlow`) and the
    cluster host (:class:`~repro.sim.fluid_host.FluidHostFlow`).

    Three virtual event kinds interleave on such a flow: the sender's
    burst ticks, inbound deliveries (loopback DMA completions or fabric
    arrivals) and the receiver's throttle fires.  They replay ordered
    by ``(time, virtual seq)`` in one inline three-way loop.
    """

    #: PCIe crossings booked per transmitted packet.
    _crossings = 1
    #: Whether an inbound record crosses the port's wire and books its
    #: own host-ward DMA (fabric arrivals) or was booked at transmit
    #: time (loopback completions).
    _inbound_via_wire = False

    def __init__(self, bed, guest, stream, sender_domain, tx_function,
                 tx_driver):
        super().__init__(bed, guest, stream)
        self.sender_domain = sender_domain
        self.tx = tx_function
        self.tx_driver = tx_driver
        #: Inbound deliveries in (time, seq) order, as columns: due
        #: time, virtual seq, send time, frames.  Outside the replay
        #: every queued record is still pending.
        self._inbound: Tuple[List[float], List[int], List[float],
                             List[int]] = ([], [], [], [])
        self._next_inbound = 0

    def _tx_gate(self) -> Optional[str]:
        # The replayed transmit assumes every packet clears anti-spoof
        # and the rate limiter and reaches route_transmit.
        tx = self.tx
        assigned = self.port.switch._function_macs.get(tx.function_index)
        if assigned is not None and assigned != self.stream.src:
            return "tx_spoof"
        if tx.tx_rate_limit_bps > 0:
            return "tx_rate_limit"
        return None

    def _still_valid(self) -> bool:
        tx = self.tx
        return (super()._still_valid()
                and tx.enabled
                and self.tx_driver.running
                and tx.tx_rate_limit_bps <= 0)

    def begin(self) -> bool:
        if self.active:
            return True
        if not super().begin():
            return False
        for column in self._inbound:
            column.clear()
        return True

    # ------------------------------------------------------------------
    # the three-way merged virtual event loop
    # ------------------------------------------------------------------
    def _advance(self, limit: float, inclusive: bool) -> None:
        sim = self.sim
        due, seqs = self._inbound[:2]
        while True:
            t = self._t_next
            c = self._tick_seq
            kind = 0
            k = self._next_inbound
            if k < len(due) and (due[k], seqs[k]) < (t, c):
                t = due[k]
                c = seqs[k]
                kind = 1
            fire_at = self._fire_at
            if fire_at is not None and (fire_at, self._fire_seq) < (t, c):
                t = fire_at
                kind = 2
            if not (t < limit or (inclusive and t == limit)):
                break
            if kind == 0:
                self._tick()
                sim.collapsed_events += 1
            elif kind == 1:
                sim.collapsed_events += self._replay_inbound(limit,
                                                             inclusive)
            else:
                self._fire_at = None
                self._fire(t)
                sim.collapsed_events += 1
        if self._next_inbound:
            for column in self._inbound:
                del column[:self._next_inbound]
            self._next_inbound = 0
        self._flush()

    def _tx_burst(self, count: int, tick_time: float,
                  finishes: Optional[List[float]] = None) -> Optional[int]:
        """One tick's ``transmit`` -> ``hw_transmit`` -> ``route_transmit``
        up to the DMA bookings: the driver charges the whole burst, then
        each packet books its crossings unless the pipe is more than
        ``TX_BACKLOG_LIMIT`` behind.  Returns how many packets were
        booked, or None when the driver or function is down and nothing
        reached the device."""
        if count <= 0:
            return None
        self._sent += count
        tx_driver = self.tx_driver
        if not tx_driver.running:
            return None
        # The driver's transmit charges the whole burst — packets
        # dropped further down included.
        self.sender_domain.charge_guest(
            tx_driver.costs.guest_cycles_per_packet * count)
        if not self.tx.enabled:
            return None
        size = self._crossings * self.stream.mtu
        return self.port.datapath.book([tick_time] * count, [size] * count,
                                       TX_BACKLOG_LIMIT, finishes)

    def _queue_inbound(self, times, sends, counts) -> None:
        """Queue deliveries — ``counts[i]`` frames sent at ``sends[i]``,
        due at ``times[i]`` — drawing their virtual seqs in order."""
        due, seqs, sent, frames = self._inbound
        due.extend(times)
        seqs.extend(islice(self._seqs, len(times)))
        sent.extend(sends)
        frames.extend(counts)

    def _replay_inbound(self, limit: float, inclusive: bool) -> int:
        """The run of inbound deliveries due before the next tick, the
        pending fire and ``limit``: ``device_receive``'s accept against
        the ring image (after ``wire_receive``'s counter and host-ward
        DMA booking for a fabric arrival), then the throttle request.
        Returns the number of records replayed."""
        due, seqs, sends, counts = self._inbound
        first = start = i = self._next_inbound
        end = len(due)
        tick_t = self._t_next
        tick_c = self._tick_seq
        throttle = self.vf.throttle
        # The run is accepted in one go — once a fire is armed, requests
        # are no-ops — except around a request that fires inline.  The
        # send times are what the app's end-to-end latency spans.
        while i < end:
            t = due[i]
            if not ((t < tick_t or (t == tick_t and seqs[i] < tick_c))
                    and (t < limit or (inclusive and t == limit))):
                break
            fire_at = self._fire_at
            if fire_at is not None:
                if not (t < fire_at
                        or (t == fire_at and seqs[i] < self._fire_seq)):
                    break
            elif t >= throttle._last_fired + throttle.interval:
                if start < i:
                    self._accept(counts[start:i], sends[start:i])
                if self._accept(counts[i:i + 1], sends[i:i + 1]):
                    self._request(t)
                start = i + 1
            elif counts[i] and self._backlog < self._capacity:
                # It lands, and its request arms the fire.
                self._request(t)
            i += 1
        if start < i:
            self._accept(counts[start:i], sends[start:i])
        self._next_inbound = i
        if self._inbound_via_wire and i > first:
            # Booked now: the next transmit's drop check reads the pipe.
            size = self._rx_header[2]
            frames = counts[first:i]
            self.port.datapath.book(due[first:i],
                                    [n * size for n in frames])
            self._wire_rx += sum(frames)
        return i - first

    # ------------------------------------------------------------------
    # leaving the fast path
    # ------------------------------------------------------------------
    def _finish_decollapse(self) -> list:
        pending = super()._finish_decollapse()
        schedule_at = self.sim.schedule_at
        event = self._inbound_event
        for t, seq, sent, frames in zip(*self._inbound):
            pending.append((t, seq, partial(schedule_at, t,
                                            *event(sent, frames))))
        for column in self._inbound:
            column.clear()
        return pending

    def _inbound_event(self, sent: float, frames: int) -> tuple:
        """The real event (callback and arguments) the exact run has
        pending for one queued inbound record."""
        raise NotImplementedError


class FluidLoopbackFlow(FluidTxFlow):
    """A collapsed intra-port stream: guest->VF (fig. 13) or dom0->VF
    through the PF (fig. 10).

    The exact chain's events on one flow: the sender's burst ticks
    (``NetperfStream._tick`` -> ``transmit`` -> ``hw_transmit`` ->
    ``route_transmit``, booking two PCIe crossings per packet), the
    per-packet internal-loopback DMA completions (``_deliver_internal``
    -> ``device_receive`` on the receiving VF), and the receiver's
    throttle fires — merged as :class:`FluidTxFlow` describes.
    """

    _crossings = 2

    def _tx_gate(self) -> Optional[str]:
        if not self.tx_driver.running:
            return "tx_not_running"
        if not self.tx.enabled:
            return "tx_disabled"
        gate = super()._tx_gate()
        if gate is not None:
            return gate
        if self.tx is self.vf:
            return "tx_is_rx"
        return None

    def _tick(self) -> None:
        """One sender tick, each booked packet queued as a virtual DMA
        completion on the receiving VF."""
        (count,), (tick_time,) = self._next_ticks(self._t_next, True)
        finishes: List[float] = []
        passed = self._tx_burst(count, tick_time, finishes)
        if passed is not None:
            if passed:
                self.port.internal_loopback_packets += passed
                self._queue_inbound(finishes, [tick_time] * passed,
                                    [1] * passed)
            self.tx.account_tx(passed, passed * self.stream.mtu,
                               count - passed)
        # The reschedule runs after the sink, so the next tick handle's
        # virtual seq postdates this tick's completions.
        self._tick_seq = next(self._seqs)

    def _inbound_event(self, sent: float, frames: int) -> tuple:
        # An in-flight crossing: the internal-loopback DMA completion.
        src, dst, size, vlan, protocol, flow_id = self._rx_header
        packet = self.stream.pool.acquire_burst(
            1, src, dst, size, vlan, protocol, flow_id, sent)[0]
        return (self.port._deliver_internal(self.vf, packet),)
