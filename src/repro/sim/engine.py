"""The discrete-event engine.

A :class:`Simulator` owns a virtual clock (float seconds) and a priority
queue of pending events.  Events scheduled for the same instant fire in
the order they were scheduled (stable FIFO tie-breaking via a sequence
number), which keeps multi-component interactions — e.g. an interrupt
raised and masked at the same timestamp — deterministic.

Hot-path layout (the engine executes tens of millions of events per
figure campaign, so this is the repro's wall clock):

* The queue is one binary heap of native ``(time, seq, handle)``
  tuples — ordering is C-level tuple comparison, and ``seq`` is unique
  so the handle is never compared.  No calendar-queue tier sits in
  front of it: measured against this heap alone, such a tier was no
  faster on the engine micro-loops or the perfbench workloads
  (docs/performance.md).
* Every ``schedule`` builds a fresh :class:`EventHandle`.  A
  refcount-gated free list of fired handles was measured against this
  and moved no perfbench workload (docs/performance.md).
* ``run()`` dispatches inline — no ``peek()``/``step()`` double heap
  touch — and ``pending_events`` is O(1) via a live-event counter.
* Lazily-cancelled debris is compacted eagerly once it outnumbers the
  live events, so re-armed timers cannot accumulate.

perfbench (``BENCHMARK.json``) measures this path inside real workloads:
a traced run reports ``sim.engine.ns_per_event``, the engine's self
time per executed event.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import isnan
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")

#: Compact the heap once cancelled debris passes this floor *and*
#: outnumbers the live events.
_COMPACT_FLOOR = 256


class SimulationError(RuntimeError):
    """Raised for misuse of the engine (negative delays, time travel...)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is lazy: the entry stays queued but is skipped when it
    surfaces.  This keeps :meth:`Simulator.cancel` O(1); the simulator
    additionally compacts the heap when debris accumulates.

    Dispatch marks the handle cancelled before invoking its callback,
    so a late ``cancel()`` on an already-fired handle is a no-op and
    the live/cancelled accounting can never double-count.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_sim")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 sim: "Simulator"):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self._sim
        sim._live -= 1
        cancelled = sim._cancelled + 1
        sim._cancelled = cancelled
        if cancelled > _COMPACT_FLOOR and cancelled > sim._live:
            sim._compact()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        return f"<EventHandle t={self.time:.9f} {name} {state}>"


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1e-3, handler, arg1, arg2)
        sim.run(until=10.0)

    The clock unit is seconds.  ``run`` executes events in timestamp order
    until the queue drains or the horizon is reached; the clock is left at
    ``until`` when a horizon is given (so rate statistics computed as
    count/elapsed are exact even if the last event fired earlier).
    """

    def __init__(self, start_time: float = 0.0):
        self.now: float = start_time
        #: The event queue: a heap of (time, seq, handle) tuples.
        self._heap: List[Tuple] = []
        self._seq: int = 0
        self._running: bool = False
        self._events_executed: int = 0
        #: Events the fluid datapath (:mod:`repro.sim.fluid`) accounted
        #: for arithmetically instead of dispatching.  For an eligible
        #: run, ``events_executed + collapsed_events`` equals the exact
        #: mode's ``events_executed``.
        self.collapsed_events: int = 0
        self._step_observer: Optional[Callable[[EventHandle], None]] = None
        #: Live (non-cancelled) queued events — pending_events is O(1).
        self._live: int = 0
        #: Cancelled entries still queued (compaction trigger).
        self._cancelled: int = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now={self.now}): time travel"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, callback, args, self)
        self._live += 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        handle.cancel()

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def peek(self) -> Optional[float]:
        """Timestamp of the next live event, or None if the queue is empty.

        Discards any cancelled prefix while looking.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            self._cancelled -= 1
            heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Execute the single next event.  Returns False if none remained."""
        if self.peek() is None:
            return False
        entry = heappop(self._heap)
        handle = entry[2]
        self.now = entry[0]
        self._events_executed += 1
        self._live -= 1
        handle.cancelled = True  # late cancel() on a fired handle: no-op
        observer = self._step_observer
        if observer is None:
            handle.callback(*handle.args)
        else:
            observer(handle)
        return True

    def set_step_observer(
            self, observer: Optional[Callable[[EventHandle], None]]) -> None:
        """Install a dispatch hook (``None`` to remove it).

        When set, the observer is invoked *instead of* the event's
        callback and becomes responsible for calling
        ``handle.callback(*handle.args)`` itself.  This is the seam the
        opt-in host profiler (:class:`repro.obs.EngineProfiler`) uses to
        measure wall-clock per callback; the default path stays a single
        attribute check.
        """
        self._step_observer = observer

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains, or to the ``until`` horizon.

        With a horizon, events strictly after ``until`` stay queued and the
        clock is advanced exactly to ``until``.

        The dispatch loop is inlined (no per-event ``peek``/``step``
        round trips): pop the heap top, skip cancelled entries.
        """
        if until is not None and isnan(until):
            raise SimulationError("cannot run until t=nan")
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        limit = _INF if until is None else until
        heap = self._heap  # identity is stable: _compact filters in place
        try:
            while heap:
                entry = heap[0]
                if entry[0] > limit:
                    break
                heappop(heap)
                handle = entry[2]
                if handle.cancelled:
                    self._cancelled -= 1
                    continue
                self.now = entry[0]
                self._events_executed += 1
                self._live -= 1
                handle.cancelled = True  # late cancel(): no-op
                observer = self._step_observer
                if observer is None:
                    handle.callback(*handle.args)
                else:
                    observer(handle)
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    @property
    def events_executed(self) -> int:
        """Total events executed since construction."""
        return self._events_executed

    def queue_stats(self) -> dict:
        """Read-only queue accounting for the invariant auditor.

        Unlike :meth:`peek`, this never mutates the heap — no
        cancelled-prefix popping — so calling it mid-run cannot perturb
        the event stream.  The identity audited against it: ``live +
        cancelled`` equals the entries physically on the heap.
        """
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "heap": len(self._heap),
        }

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def _compact(self) -> None:
        """Eagerly drop lazily-cancelled entries from the heap.

        Filters in place, because the run loop caches a reference to
        the heap, and exactly resets the cancelled-debris counter.
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapify(heap)
        self._cancelled = 0
