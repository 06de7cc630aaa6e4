"""The fluid fast path for cluster hosts (fig. 22's scale-out runs).

A cluster host's steady state is the single-host one plus a wire: each
guest's netperf stream ticks, the VF transmits onto the port's uplink
:class:`~repro.net.link.Link`, the frame surfaces as egress for the
ToR, and inbound fabric deliveries replay into the port's wire receive
and the VF's interrupt chain.  Exact simulation spends one event per
tick, one per in-flight wire frame, one per fabric arrival and one per
throttle fire; :class:`FluidHostFlow` collapses all four.

The eligibility gates pin one stream and one guest per port, so every
virtual event source on the port belongs to one flow.  Its transmit
replay is split in two sides:

* **The wire side** — tick carry, the uplink's serialization and queue,
  delivery times and the egress they produce — depends on nothing the
  port receives, with one exception: ``route_transmit``'s
  ``TX_BACKLOG_LIMIT`` drop, which inbound DMA bookings can trigger.
  So :meth:`FluidHostFlow.run_ahead` replays it *ahead* of the window,
  on a virtual image of the link, as far as a backlog bound proves the
  drop cannot fire: the DMA pipe's current backlog, plus the transmit
  bytes of the ticks replayed ahead, plus whatever the fabric could
  deliver meanwhile at its line rate, must stay under the limit.  The
  host hands out the resulting egress at once, and the coordinator's
  lockstep windows widen from one fabric latency to that horizon (see
  :mod:`repro.sim.sync`).
* **The DMA side** — the ``PcieDataPath`` bookings, the still-evaluated
  drop check, cycle charges and the VF's counters — stays in the merged
  replay with fabric arrivals and interrupt fires, ordered by ``(time,
  virtual seq)``: each virtual *schedule* draws a flow-local sequence
  number in the order the exact engine hands out handle seqs, the same
  construction as :class:`~repro.sim.fluid.FluidLoopbackFlow`.  A drop
  check on a tick the wire side already replayed must pass; if it does
  not, :class:`~repro.core.host.HorizonError` stops the run rather than
  let it diverge from exact.

The live link and the host's delivery counters are brought up to date
at every settle point, so the models always show the exact run's state
at the present; the virtual image may run ahead of it.  Fabric arrivals
are stamped at injection time — the top of :meth:`Host.advance`, in
arrival order — exactly where the exact host schedules its ``_ingress``
handles.

Egress sequence numbers are host-global, so collapse is
**all-or-nothing per host**: one ineligible stream keeps the whole host
exact, and one flow leaving the fast path takes every flow with it
(:meth:`Host._evict_fluid`).  Egress already handed out ahead of that
instant becomes a promise: the exact engine regenerates those frames
and the host checks each against what it handed out instead of sending
it twice.

The exactness contract is the same byte-identical-or-fallback one as
the single-host flows, with the same measure-zero tie caveats plus
two cluster-specific ones: equal-time egress records from different
ports order by staging rather than engine seq, and handles re-created
at decollapse draw fresh sequence numbers.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Deque, List, Optional, Tuple

from repro.core.host import HorizonError
from repro.devices.igb82576 import TX_BACKLOG_LIMIT
from repro.net.packet import DEFAULT_MTU, Protocol, wire_bytes
from repro.sim.fluid import FluidFlow

_PROTOCOLS = {p.value: p for p in Protocol}


#: Relative slack under ``TX_BACKLOG_LIMIT`` in the run-ahead bound: it
#: absorbs the rounding of the pipe's sequential float bookings against
#: the bound's single sum.
_BOUND_SLACK = 1e-9


class FluidHostFlow(FluidFlow):
    """One collapsed (guest, port) pair on a cluster host: TX ticks,
    uplink wire, fabric arrivals and the RX interrupt chain."""

    #: The total virtual order makes the fire-before-tick window proof
    #: unnecessary (and lets adaptive ITR reprogram freely).
    _min_window = 0.0

    def __init__(self, host, guest, stream):
        super().__init__(host.bed, guest, stream)
        self.host = host
        self._link = guest.port.uplink
        #: Fabric deliveries accepted, not yet replayed:
        #: (arrival, virtual seq, created_at, count).
        self._arrivals: Deque[Tuple[float, int, float, int]] = deque()
        #: The flow-local stand-in for engine handle seq numbers.
        self._cseq = 1
        self._tick_cseq = 0
        self._fire_cseq = 0
        #: The inbound frame shape the replay is specialized to:
        #: (src, dst, size, vlan, protocol, flow_id), learned from the
        #: first arrival.  A frame that differs evicts the host.
        self._rx_shape: Optional[tuple] = None
        #: Wire-side frame size of the local stream (TX mirror).
        self._wire_frame = wire_bytes(stream.mtu, stream.vlan)
        #: The shape of every egress frame this flow produces.
        self.egress_shape = (host.index, stream.src.value, stream.dst.value,
                             stream.mtu, stream.vlan, stream.protocol.value,
                             stream.flow_id)
        # -- the wire side (may run ahead of the merged replay) --
        #: Next tick the wire side has not replayed, and its carry.
        self._w_next = 0.0
        self._w_carry = 0.0
        #: The virtual link: when its transmitter goes idle, and the
        #: delivery times of its queued frames still on the line.
        self._tx_free = 0.0
        self._queued_at: Deque[float] = deque()
        #: Ticks replayed on the wire side only: (tick time, count,
        #: carry after, frames past the DMA drop, frames on the line,
        #: of them queued, link tail-drops, transmitter idle after).
        self._ticks: Deque[tuple] = deque()
        #: DMA payload those ticks still have to book.
        self._ahead_bytes = 0
        #: Frames on the line whose delivery the live link has not yet
        #: seen, and frames not yet handed out as egress: (arrival, tick
        #: time, was_queued), both in arrival order.
        self._flight: Deque[Tuple[float, float, bool]] = deque()
        self._egress_q: Deque[Tuple[float, float, bool]] = deque()

    # ------------------------------------------------------------------
    # eligibility
    # ------------------------------------------------------------------
    def try_attach(self) -> bool:
        vf = self.vf
        stream = self.stream
        # Transmit-side gates (all side-effect free): the tick replay
        # assumes every packet clears anti-spoof and the rate limiter
        # and reaches the uplink.
        if self._link is None:
            return self._reject("no_uplink")
        assigned = self.port.switch._function_macs.get(vf.function_index)
        if assigned is not None and assigned != stream.src:
            return self._reject("tx_spoof")
        if vf.tx_rate_limit_bps > 0:
            return self._reject("tx_rate_limit")
        return super().try_attach()

    def _route_gate(self) -> Optional[str]:
        # The stream must leave on the wire: a locally-switched dst
        # would take the internal-loopback path this replay does not
        # model (FluidLoopbackFlow's job, on a single-host bed).
        if self.port.switch.is_local(self.stream.dst, self.stream.vlan):
            return "tx_local_dst"
        return None

    def _still_valid(self) -> bool:
        return (super()._still_valid()
                and self.port.uplink is self._link
                and self.vf.tx_rate_limit_bps <= 0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def begin(self) -> bool:
        if self.active:
            return True
        if not super().begin():
            return False
        self._arrivals.clear()
        self._cseq = 1
        self._tick_cseq = 0
        self._fire_cseq = 0
        self._rx_shape = None
        self._w_next = self._t_next
        self._w_carry = self._carry
        self._tx_free = self._link._tx_free_at
        self._queued_at.clear()
        self._ticks.clear()
        self._ahead_bytes = 0
        self._flight.clear()
        self._egress_q.clear()
        # The wire_receive prologue settles through this hook; it is
        # also Host.advance's per-port handle for diverting inbound.
        self.port._fluid_tx = self
        return True

    def detach(self) -> None:
        """Unhook every attach-time installation (attach failure on a
        sibling stream, or a host-wide eviction)."""
        if self.stream._fluid is self:
            self.stream._fluid = None
        if getattr(self.driver, "_fluid", None) is self:
            self.driver._fluid = None
        if self.vf.fluid_listener == self.interval_reprogrammed:
            self.vf.fluid_listener = None
        if self.port._fluid_tx is self:
            self.port._fluid_tx = None

    # ------------------------------------------------------------------
    # fabric ingress (called from Host.advance, before sim.run)
    # ------------------------------------------------------------------
    def accept_arrival(self, batch: tuple) -> bool:
        """Take one routed batch into the virtual queue.

        Returns False — caller must evict the host — when its frames
        are not the single unicast shape the collapsed replay handles;
        the shape is checked once per batch.  Virtual seqs are drawn
        here, at the moment (and in the order) the exact host would
        create the ``_ingress`` handles.
        """
        _dst_host, shape, arrivals, created, counts = batch
        rx_shape = shape[1:]
        if self._rx_shape is None:
            vf = self.vf
            if shape[2] != vf.mac.value:
                return False
            if self.port.switch.resolve_unicast(
                    vf.mac, shape[4]) != vf.function_index:
                return False
            self._rx_shape = rx_shape
            self._deliver_mtu = shape[3]
            self._deliver_protocol = _PROTOCOLS[shape[5]]
        elif rx_shape != self._rx_shape:
            return False
        queue = self._arrivals
        cseq = self._cseq
        for i, arrival in enumerate(arrivals):
            queue.append((arrival, cseq, created[i],
                          1 if counts is None else counts[i]))
            cseq += 1
        self._cseq = cseq
        return True

    def next_time(self) -> float:
        """This flow's egress frontier: its next wire tick, or an
        earlier frame not yet handed out.  Fires and arrivals emit no
        egress, so they are left out."""
        t = self._w_next
        queue = self._egress_q
        if queue and queue[0][0] < t:
            t = queue[0][0]
        return t

    # ------------------------------------------------------------------
    # the wire side
    # ------------------------------------------------------------------
    def run_ahead(self, limit: float, inclusive: bool,
                  rx_bps: float) -> None:
        """Replay wire ticks ahead of the present, up to ``limit``, as
        far as the DMA backlog bound certifies.

        A tick at ``t`` is certified when the pipe's backlog now, plus
        the payload of every tick replayed ahead through ``t``, plus
        what the fabric can deliver by ``t`` at ``rx_bps`` (one frame
        more, for a frame already on its way), stays under
        ``TX_BACKLOG_LIMIT``: the pipe cannot then be more than that far
        behind at ``t``, so the drop check cannot fire.
        """
        stream = self.stream
        interval = stream.burst_interval
        quota = stream.pps * interval
        mtu = stream.mtu
        datapath = self.port.datapath
        now = self.sim.now
        backlog = datapath._busy_until - now
        if backlog < 0.0:
            backlog = 0.0
        budget = ((TX_BACKLOG_LIMIT * (1.0 - _BOUND_SLACK) - backlog)
                  * datapath.effective_bps / 8 - DEFAULT_MTU)
        rx_bytes_per_s = rx_bps / 8
        transmit = self.driver.running and self.vf.enabled
        ticks = self._ticks
        wire_tick = self._wire_tick
        ahead = self._ahead_bytes
        t = self._w_next
        carry = self._w_carry
        while t < limit or (inclusive and t == limit):
            total = quota + carry
            count = int(total)
            passed = count if transmit and count > 0 else 0
            if passed and (ahead + passed * mtu
                           + (t - now) * rx_bytes_per_s) > budget:
                break
            carry = total - count
            if passed:
                ticks.append((t, count, carry, passed)
                             + wire_tick(t, passed))
                ahead += passed * mtu
            else:
                ticks.append((t, count, carry, 0, 0, 0, 0, self._tx_free))
            t = t + interval
        self._w_next = t
        self._w_carry = carry
        self._ahead_bytes = ahead

    def _wire_tick(self, tick_time: float, passed: int) -> tuple:
        """``Link.transmit`` for the ``passed`` frames of one tick, on
        the virtual link; returns (sent, queued, dropped, idle at)."""
        queued_at = self._queued_at
        # Deliveries at or before the tick run first (their handles
        # predate the tick's).
        while queued_at and queued_at[0] <= tick_time:
            queued_at.popleft()
        link = self._link
        ser = self._wire_frame * 8 / link.rate_bps
        prop = link.propagation_delay
        queue_frames = link.queue_frames
        tx_free = self._tx_free
        flight = self._flight
        egress = self._egress_q
        sent = queued = drops = 0
        for _ in range(passed):
            start = tx_free if tx_free > tick_time else tick_time
            if start > tick_time:
                if len(queued_at) >= queue_frames:
                    drops += 1
                    continue
                was_queued = True
            else:
                was_queued = False
            tx_free = start + ser
            arrival = tx_free + prop
            if was_queued:
                queued_at.append(arrival)
                queued += 1
            entry = (arrival, tick_time, was_queued)
            flight.append(entry)
            egress.append(entry)
            sent += 1
        self._tx_free = tx_free
        return sent, queued, drops, tx_free

    def take_egress(self, limit: float, inclusive: bool):
        """Pop the frames delivered before ``limit`` (or at it, when
        ``inclusive``) not yet handed out: ``(times, created)``."""
        queue = self._egress_q
        times: List[float] = []
        created: List[float] = []
        while queue:
            arrival, tick_time, _queued = queue[0]
            if arrival < limit or (inclusive and arrival == limit):
                queue.popleft()
                times.append(arrival)
                created.append(tick_time)
            else:
                break
        return times, created

    def split_egress(self):
        """At eviction: ``((times, created), promised)`` — frames the
        live link has delivered but the host has not handed out yet, and
        ``(t, created_at)`` of frames handed out but not yet delivered.
        Both queues pop from the same arrival-ordered sequence, so the
        difference of their lengths says which case holds."""
        surplus = len(self._egress_q) - len(self._flight)
        times: List[float] = []
        created: List[float] = []
        for _ in range(surplus):
            arrival, tick_time, _queued = self._egress_q.popleft()
            times.append(arrival)
            created.append(tick_time)
        promised = [(arrival, tick_time) for arrival, tick_time, _queued
                    in islice(self._flight, max(0, -surplus))]
        return (times, created), promised

    # ------------------------------------------------------------------
    # the merged virtual event loop (DMA side, arrivals, fires)
    # ------------------------------------------------------------------
    def _advance(self, limit: float, inclusive: bool) -> None:
        sim = self.sim
        arrivals = self._arrivals
        while True:
            t = self._t_next
            c = self._tick_cseq
            kind = 0
            if arrivals:
                head = arrivals[0]
                if (head[0], head[1]) < (t, c):
                    t = head[0]
                    c = head[1]
                    kind = 2
            fire_at = self._fire_at
            if fire_at is not None and (fire_at, self._fire_cseq) < (t, c):
                t = fire_at
                kind = 3
            if not (t < limit or (inclusive and t == limit)):
                break
            if kind == 0:
                self._replay_tx_tick()
                sim.collapsed_events += 1
            elif kind == 2:
                sim.collapsed_events += self._replay_arrivals(limit,
                                                              inclusive)
            else:
                self._fire_at = None
                self._replay_fire(t)
                sim.collapsed_events += 1
        self._commit_deliveries(limit, inclusive)

    def _replay_tx_tick(self) -> None:
        """One sender tick: ``NetperfStream._tick`` -> ``transmit`` ->
        ``hw_transmit`` -> ``route_transmit`` per packet, with the DMA
        crossing booked against the live pipe.  The wire side either
        ran ahead for this tick already (its outcome is committed to the
        live link here) or runs now, for the packets past the drop."""
        stream = self.stream
        ticks = self._ticks
        if ticks:
            (tick_time, count, carry, passed_ahead, sent, queued,
             link_drops, tx_free) = ticks.popleft()
            self._ahead_bytes -= passed_ahead * stream.mtu
            self._t_next = tick_time + stream.burst_interval
            self._carry = carry
            self._tick_created = tick_time
        else:
            count, tick_time = self._next_tick()
            passed_ahead = None
        passed = 0
        if count > 0:
            mtu = stream.mtu
            stream.sent.value += count
            stream.sent_bytes.value += count * mtu
            driver = self.driver
            if driver.running:
                # The driver's transmit charges the whole burst —
                # packets dropped further down included.
                driver.domain.charge_guest(
                    driver.costs.guest_cycles_per_packet * count)
                vf = self.vf
                if vf.enabled:
                    port = self.port
                    datapath = port.datapath
                    busy = datapath._busy_until
                    dma = mtu * 8 / datapath.effective_bps
                    for _ in range(count):
                        # route_transmit's FIFO-backlog bound; past it,
                        # the DMA crossing and the wire counter are
                        # booked even if the line queue tail-drops.
                        if busy - tick_time > TX_BACKLOG_LIMIT:
                            break
                        start = busy if busy > tick_time else tick_time
                        busy = start + dma
                        passed += 1
                    if passed:
                        datapath._busy_until = busy
                        datapath.transferred_bytes.value += passed * mtu
                        datapath.transfers.value += passed
                        port.wire_tx_packets += passed
                    if passed_ahead is None:
                        sent, queued, link_drops, tx_free = (
                            self._wire_tick(tick_time, passed) if passed
                            else (0, 0, 0, self._tx_free))
                    link = self._link
                    link._tx_free_at = tx_free
                    link._queued += queued
                    if link_drops:
                        link.dropped.value += link_drops
                    if sent:
                        vf.tx_packets += sent
                        vf.tx_bytes += sent * mtu
                    drops = count - sent
                    if drops:
                        vf.tx_backlog_drops += drops
        if passed_ahead is None:
            self._w_next = self._t_next
            self._w_carry = self._carry
        elif passed != passed_ahead:
            raise HorizonError(
                f"{self.host.spec.name}: the transmit drop check at "
                f"t={tick_time!r} passed {passed} of {count} packets, "
                f"but the wire side certified {passed_ahead}")
        # The reschedule runs after the sink, so the next tick handle's
        # virtual seq postdates this tick's.
        self._tick_cseq = self._cseq
        self._cseq += 1

    def _commit_deliveries(self, limit: float, inclusive: bool) -> None:
        """``Link._deliver`` for every frame on the line due by
        ``limit``: the line's counters and the host's (the egress itself
        is handed out by the host)."""
        flight = self._flight
        delivered = queued = 0
        while flight:
            arrival = flight[0][0]
            if arrival < limit or (inclusive and arrival == limit):
                queued += flight.popleft()[2]
                delivered += 1
            else:
                break
        if delivered:
            link = self._link
            link._queued -= queued
            link.delivered.value += delivered
            link.delivered_bytes.value += delivered * self._wire_frame
            self.host.uplink_tx_frames += delivered
            self.sim.collapsed_events += delivered

    def _replay_arrivals(self, limit: float, inclusive: bool) -> int:
        """The run of fabric deliveries due before the next tick, the
        pending fire and ``limit``: ``Host._ingress`` -> ``wire_receive``
        -> ``device_receive`` per routed record as flat arithmetic (one
        host-ward DMA booking per record, matching the exact batch),
        then the throttle request.  Counters land once per run; the
        pipe's busy horizon and each segment's latency stamp advance
        record by record.  Returns the number of records replayed."""
        arrivals = self._arrivals
        tick = (self._t_next, self._tick_cseq)
        fire = None if self._fire_at is None else (self._fire_at,
                                                   self._fire_cseq)
        size = self._deliver_mtu
        port = self.port
        datapath = port.datapath
        rate = datapath.effective_bps
        one = size * 8 / rate
        busy = datapath._busy_until
        capacity = self._capacity
        backlog = self._backlog
        pending = self._pending
        records = frames = accepted_total = 0
        while arrivals:
            head = arrivals[0]
            arrival = head[0]
            key = (arrival, head[1])
            if not (key < tick and (fire is None or key < fire)
                    and (arrival < limit
                         or (inclusive and arrival == limit))):
                break
            arrivals.popleft()
            count = head[3]
            start = arrival if arrival >= busy else busy
            busy = start + (one if count == 1 else count * size * 8 / rate)
            records += 1
            frames += count
            accepted = capacity - backlog
            if accepted > count:
                accepted = count
            if accepted <= 0:
                continue
            accepted_total += accepted
            backlog += accepted
            # The segment's timestamp is the *remote* send time, which
            # is what the app's end-to-end latency spans.
            pending.append((count, accepted, head[2]))
            if fire is not None:
                continue
            # InterruptThrottle.request against the virtual slot.
            throttle = self.vf.throttle
            due = throttle._last_fired + throttle.interval
            if arrival >= due:
                self._backlog = backlog
                self._replay_fire(arrival)
                backlog = self._backlog
                pending = self._pending
            else:
                self._fire_at = due
                self._fire_created = arrival
                self._fire_cseq = self._cseq
                self._cseq += 1
                fire = (due, self._fire_cseq)
        self._backlog = backlog
        datapath._busy_until = busy
        datapath.transferred_bytes.value += frames * size
        datapath.transfers.value += records
        port.wire_rx_packets += frames
        self.vf.fluid_receive(frames, accepted_total, accepted_total * size)
        return records

    # ------------------------------------------------------------------
    # leaving the fast path
    # ------------------------------------------------------------------
    def decollapse(self) -> None:
        # Staged egress and sequence numbering are host-global, so one
        # flow leaving the fast path takes the whole host with it.
        if not self.active:
            return
        self.host._evict_fluid()

    def _materialize(self) -> None:
        from repro.net.mac import MacAddress
        stream = self.stream
        ring = self.vf.rx_ring
        spin = self._drained_total & ring._mask
        ring.head = (ring.head + spin) & ring._mask
        ring.tail = (ring.tail + spin) & ring._mask
        ring._clean = (ring._clean + spin) & ring._mask
        self._drained_total = 0
        total = 0
        shape = self._rx_shape
        if shape is not None:
            src, dst, size, vlan, protocol, flow_id = shape
            src = MacAddress(src)
            dst = MacAddress(dst)
            protocol = _PROTOCOLS[protocol]
            pool = stream.pool
            for _count, accepted, created_at in self._pending:
                if accepted <= 0:
                    continue
                burst = pool.acquire_burst(accepted, src, dst, size, vlan,
                                           protocol, flow_id, created_at)
                for packet in burst:
                    ring.consume(packet)
                total += accepted
        ring.completed -= total
        self._pending.clear()
        self._backlog = 0

    def _finish_decollapse(self) -> None:
        super()._finish_decollapse()
        sim = self.sim
        host = self.host
        port = self.port
        stream = self.stream
        link = self._link
        pool = stream.pool
        # Frames the merged replay put on the line become real scheduled
        # deliveries, in creation (= arrival) order so their new handle
        # seqs preserve the exact run's relative order.  Frames of ticks
        # replayed only on the wire side are the tail of the queue; the
        # exact engine transmits those ticks again.
        ahead = sum(tick[4] for tick in self._ticks)
        flight = self._flight
        for arrival, tick_time, was_queued in islice(
                flight, len(flight) - ahead):
            burst = pool.acquire_burst(1, stream.src, stream.dst,
                                       stream.mtu, stream.vlan,
                                       stream.protocol, stream.flow_id,
                                       tick_time)
            sim.schedule_at(arrival, link._deliver, burst[0], was_queued)
        for queue in (flight, self._egress_q, self._ticks, self._queued_at):
            queue.clear()
        self._ahead_bytes = 0
        # Undelivered fabric arrivals go back to the engine as the
        # _ingress events the exact advance would have scheduled.
        shape = (None,) + self._rx_shape if self._rx_shape else None
        for arrival, _cseq, created_at, count in self._arrivals:
            sim.schedule_at(arrival, host._ingress, port, shape,
                            created_at, count)
        self._arrivals.clear()
        if port._fluid_tx is self:
            port._fluid_tx = None
