"""The invariant auditor: conservation laws, checked at runtime.

Every check is *exact* — each one is an identity the implementation
maintains by construction, verified against every mutation site, so a
violation is always a real bug (or a deliberately seeded one in the
tests), never noise.  The audited laws:

* **packet-pool** — :class:`~repro.net.packet.PacketPool` accounting:
  ``acquired == next_seq`` (every handed-out packet drew one seq).
* **nic-flow** — per network function, every offered RX packet is
  accounted exactly once: ``rx_offered == rx_packets +
  rx_no_desc_drops + rx_dma_faults + rx_corrupt_drops``.
* **descriptor-ring** — ownership partition on every enabled
  function's RX ring: cursors in range, the cursor-order identity
  ``device_owned + pending_completions == posted_window``, and the
  done-bit window — a slot's ``done`` writeback is set *iff* its index
  lies in ``[_clean, head)``.
* **lapic** — IRR/ISR bitmask consistency: no architecture-reserved
  vector (< 32) and no bit beyond the 256-vector register width.
* **cycle-ledger** — every cycle the ledger attributes was also
  charged to some physical core: ``ledger.total_cycles <=
  machine.cycles()`` (small float tolerance).
* **event-queue** — engine accounting (``live + cancelled`` equals the
  entries physically on the heap) and the heap property.
* **packet-buffer** — VMDq queue occupancy:
  ``len == enqueued - dequeued - cleared``.

The auditor never calls :meth:`~repro.sim.engine.Simulator.peek` (which
has side effects) and the default end-of-run audit schedules nothing,
so audited fault-free runs stay byte-identical to unaudited ones.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List, Mapping, Optional

from repro.hw.lapic import FIRST_USABLE_VECTOR, VECTOR_COUNT

#: Schema tag of the on-disk repro dump a violation writes.
DUMP_SCHEMA = "repro-audit-dump/1"

#: Relative tolerance for the ledger-vs-machine float comparison: both
#: sides sum millions of float charges in different orders.
_LEDGER_RTOL = 1e-6


def default_dump_dir() -> str:
    """Where violation dumps land: ``$REPRO_AUDIT_DIR`` or a local dir."""
    return os.environ.get("REPRO_AUDIT_DIR", ".repro-audit")


class InvariantViolation(RuntimeError):
    """A conservation law did not hold.

    Carries the failed check's name, the simulated time, a details dict
    naming the offending component and numbers, and the path of the
    repro dump (when one was written).
    """

    def __init__(self, check: str, message: str, *, sim_time: float,
                 details: Optional[Mapping[str, object]] = None,
                 dump_path: Optional[str] = None):
        location = f" [dump: {dump_path}]" if dump_path else ""
        super().__init__(f"invariant {check!r} violated at "
                         f"t={sim_time:.9f}: {message}{location}")
        self.check = check
        self.sim_time = sim_time
        self.details: Dict[str, object] = dict(details or {})
        self.dump_path = dump_path


class InvariantAuditor:
    """Opt-out runtime checker registered on a Testbed.

    ``context`` is whatever the caller wants in the repro dump —
    :func:`repro.api.run` passes ``{"scenario": ..., "seed": ...}`` so
    the dump alone reproduces the failing run.
    """

    def __init__(self, bed, context: Optional[Mapping[str, object]] = None,
                 dump_dir: Optional[os.PathLike] = None):
        self.bed = bed
        self.context: Dict[str, object] = dict(context or {})
        self.dump_dir = dump_dir
        #: Completed audit passes (each runs every check).
        self.audits = 0
        self.violations = 0
        self._interval_handle = None

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def install(self, interval: float) -> None:
        """Audit every ``interval`` simulated seconds until run end.

        Periodic audits consume event-queue sequence numbers, so they
        are opt-in: the default end-of-run audit keeps the event stream
        (and therefore all results) byte-identical.
        """
        if interval <= 0:
            raise ValueError("audit interval must be positive")
        self._interval = interval
        self._interval_handle = self.bed.sim.schedule(interval, self._tick)

    def _tick(self) -> None:
        self.audit(phase="interval")
        self._interval_handle = self.bed.sim.schedule(self._interval,
                                                      self._tick)

    # ------------------------------------------------------------------
    # the audit pass
    # ------------------------------------------------------------------
    def audit(self, phase: str = "end") -> int:
        """Run every check; returns how many ran.  Raises
        :class:`InvariantViolation` (after writing the repro dump) on
        the first failure."""
        checks = (
            self._check_packet_pool,
            self._check_nic_flow,
            self._check_rings,
            self._check_lapics,
            self._check_ledger,
            self._check_event_queue,
            self._check_packet_buffers,
        )
        for check in checks:
            check(phase)
        self.audits += 1
        return len(checks)

    def _fail(self, check: str, message: str,
              details: Optional[Mapping[str, object]] = None) -> None:
        self.violations += 1
        sim_time = self.bed.sim.now
        dump_path = self._write_dump(check, message, sim_time, details)
        raise InvariantViolation(check, message, sim_time=sim_time,
                                 details=details, dump_path=dump_path)

    def _write_dump(self, check: str, message: str, sim_time: float,
                    details: Optional[Mapping[str, object]]) -> Optional[str]:
        """The minimal repro: scenario + seed + sim time, as JSON."""
        root = Path(self.dump_dir if self.dump_dir is not None
                    else default_dump_dir())
        seed = getattr(self.bed.config, "seed", None)
        document = {
            "schema": DUMP_SCHEMA,
            "check": check,
            "message": message,
            "sim_time": sim_time,
            "seed": seed,
            "details": _jsonable(details or {}),
            "context": _jsonable(self.context),
        }
        try:
            root.mkdir(parents=True, exist_ok=True)
            stem = f"{check}-seed{seed}-pid{os.getpid()}"
            path = root / f"{stem}.json"
            counter = 0
            while path.exists():
                counter += 1
                path = root / f"{stem}-{counter}.json"
            with open(path, "w") as handle:
                json.dump(document, handle, sort_keys=True, indent=1)
                handle.write("\n")
            return str(path)
        except OSError:
            return None  # the violation still raises; the dump is best-effort

    # ------------------------------------------------------------------
    # individual checks
    # ------------------------------------------------------------------
    def _check_packet_pool(self, phase: str) -> None:
        pool = self.bed.packet_pool
        if pool is None:
            return
        if pool.acquired != pool.next_seq:
            self._fail("packet-pool",
                       f"acquired={pool.acquired} != "
                       f"next_seq={pool.next_seq}",
                       {"acquired": pool.acquired,
                        "next_seq": pool.next_seq})

    def _net_functions(self):
        for port in self.bed.ports:
            for fn in [port.pf] + list(port.vfs):
                yield port, fn

    def _check_nic_flow(self, phase: str) -> None:
        for port, fn in self._net_functions():
            accounted = (fn.rx_packets + fn.rx_no_desc_drops
                         + fn.rx_dma_faults + fn.rx_corrupt_drops)
            if fn.rx_offered != accounted:
                self._fail("nic-flow",
                           f"{fn.name}: rx_offered={fn.rx_offered} != "
                           f"accepted+dropped={accounted}",
                           {"function": fn.name, "port": port.name,
                            "rx_offered": fn.rx_offered,
                            "rx_packets": fn.rx_packets,
                            "rx_no_desc_drops": fn.rx_no_desc_drops,
                            "rx_dma_faults": fn.rx_dma_faults,
                            "rx_corrupt_drops": fn.rx_corrupt_drops})

    def _check_rings(self, phase: str) -> None:
        for port, fn in self._net_functions():
            if not fn.enabled:
                continue  # a reset/disabled function's ring is in flux
            self._check_one_ring(fn.name, fn.rx_ring)

    def _check_one_ring(self, owner: str, ring) -> None:
        size = ring.size
        head, tail, clean = ring.head, ring.tail, ring._clean
        for cursor, value in (("head", head), ("tail", tail),
                              ("clean", clean)):
            if not 0 <= value < size:
                self._fail("descriptor-ring",
                           f"{owner}/{ring.name}: cursor {cursor}="
                           f"{value} out of range [0, {size})",
                           {"ring": ring.name, "owner": owner,
                            "cursor": cursor, "value": value,
                            "size": size})
        device_owned = (tail - head) % size
        pending = (head - clean) % size
        window = (tail - clean) % size
        if device_owned + pending != window:
            self._fail("descriptor-ring",
                       f"{owner}/{ring.name}: ownership partition broken "
                       f"(device={device_owned} + pending={pending} != "
                       f"window={window})",
                       {"ring": ring.name, "owner": owner, "head": head,
                        "tail": tail, "clean": clean,
                        "device_owned": device_owned,
                        "pending_completions": pending,
                        "posted_window": window})
        # DD bits are set exactly on the completions awaiting cleanup,
        # [clean, head): one comparison, and a walk only to name the
        # first slot that breaks it.
        expected = bytearray(size)
        for start, stop in ring.runs(clean, pending):
            expected[start:stop] = b"\x01" * (stop - start)
        if ring.done != expected:
            index = next(i for i in range(size)
                         if ring.done[i] != expected[i])
            state = "set" if expected[index] else "clear"
            self._fail("descriptor-ring",
                       f"{owner}/{ring.name}: slot {index} done bit "
                       f"should be {state} (clean={clean}, "
                       f"head={head}, tail={tail})",
                       {"ring": ring.name, "owner": owner,
                        "slot": index, "done": bool(ring.done[index]),
                        "head": head, "tail": tail, "clean": clean})

    def _check_lapics(self, phase: str) -> None:
        reserved = (1 << FIRST_USABLE_VECTOR) - 1
        domains = getattr(self.bed.platform, "domains", {})
        for domain in domains.values():
            lapic = getattr(domain, "lapic", None)
            if lapic is None:
                continue
            registers = lapic._irr | lapic._isr
            if registers & reserved:
                vector = (registers & reserved).bit_length() - 1
                self._fail("lapic",
                           f"{domain.name}: architecture-reserved vector "
                           f"{vector} latched",
                           {"domain": domain.name, "vector": vector,
                            "irr": lapic._irr, "isr": lapic._isr})
            if registers >> VECTOR_COUNT:
                self._fail("lapic",
                           f"{domain.name}: vector beyond register width "
                           f"({VECTOR_COUNT}) latched",
                           {"domain": domain.name, "irr": lapic._irr,
                            "isr": lapic._isr})

    def _check_ledger(self, phase: str) -> None:
        platform = self.bed.platform
        ledger = getattr(platform, "ledger", None)
        machine = getattr(platform, "machine", None)
        if ledger is None or machine is None:
            return
        attributed = ledger.total_cycles
        charged = machine.cycles()
        if attributed > charged * (1 + _LEDGER_RTOL) + 1.0:
            self._fail("cycle-ledger",
                       f"ledger attributes {attributed:.0f} cycles but "
                       f"cores were charged only {charged:.0f}",
                       {"ledger_cycles": attributed,
                        "machine_cycles": charged})

    def _check_event_queue(self, phase: str) -> None:
        sim = self.bed.sim
        stats = sim.queue_stats()
        accounted = stats["live"] + stats["cancelled"]
        if accounted != stats["heap"]:
            self._fail("event-queue",
                       f"live+cancelled={accounted} != queued "
                       f"entries={stats['heap']}",
                       dict(stats))
        heap = sim._heap
        for index in range(1, len(heap)):
            if heap[index] < heap[(index - 1) >> 1]:
                self._fail("event-queue",
                           f"heap property broken at index {index}",
                           {"index": index,
                            "entry_time": heap[index][0],
                            "parent_time": heap[(index - 1) >> 1][0]})

    def _check_packet_buffers(self, phase: str) -> None:
        port = getattr(self.bed, "_vmdq_port", None)
        if port is None:
            return
        for queue in port.queues:
            buffer = queue.rx
            stats = buffer.stats
            expected = stats.enqueued - stats.dequeued - stats.cleared
            if len(buffer) != expected:
                self._fail("packet-buffer",
                           f"{buffer.name}: depth {len(buffer)} != "
                           f"enqueued-dequeued-cleared={expected}",
                           {"buffer": buffer.name, "depth": len(buffer),
                            "enqueued": stats.enqueued,
                            "dequeued": stats.dequeued,
                            "cleared": stats.cleared})


def check_fabric_conservation(tor, *, sim_time: float = 0.0) -> None:
    """Fabric ingress/egress conservation for a
    :class:`~repro.net.fabric.ToRSwitch`.

    Every frame offered to :meth:`~repro.net.fabric.ToRSwitch.route`
    must be accounted exactly once: forwarded, tail-dropped at the
    queue bound, dropped for an unknown destination, or drained at a
    silenced (crashed/paused) endpoint under a cluster fault plan.  The
    ToR lives with the cluster coordinator, not inside any one testbed,
    so this check is a standalone function (the coordinator runs it
    when it aggregates; :class:`InvariantAuditor` covers the per-host
    laws).
    """
    drained = getattr(tor, "drained", 0)
    accounted = tor.forwarded + tor.dropped + tor.unknown_dst + drained
    if tor.offered != accounted:
        raise InvariantViolation(
            "fabric-flow",
            f"offered={tor.offered} != "
            f"forwarded+dropped+unknown_dst+drained={accounted}",
            sim_time=sim_time,
            details={"offered": tor.offered, "forwarded": tor.forwarded,
                     "dropped": tor.dropped,
                     "unknown_dst": tor.unknown_dst,
                     "drained": drained})


def _jsonable(value):
    """Best-effort JSON projection for dump payloads."""
    try:
        return json.loads(json.dumps(value, default=repr))
    except (TypeError, ValueError):
        return repr(value)
