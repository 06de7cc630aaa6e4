"""Structured trace capture.

A :class:`Tracer` records timestamped, categorized events into a bounded
ring buffer — the xentrace analogue this reproduction uses to debug and
to let tests assert on *sequences* of behaviour rather than just
aggregate counters.  Tracing is off unless a tracer is installed.  Every
tracer says whether it records at all in its class attribute ``live``:
the per-burst and per-interrupt sites test ``trace.live`` before they
build an event's keyword arguments, so the default :data:`NULL_TRACER`
costs them one attribute read and no call.  Cold sites (faults, the
mailbox, migration) call it unconditionally.

Besides point events (:meth:`Tracer.emit`), a tracer records *spans* —
begin/end pairs (:meth:`Tracer.begin` / :meth:`Tracer.end`) marking the
extent of an operation such as an interrupt delivery, a DMA transfer, a
mailbox round trip or a migration phase.  :mod:`repro.obs.export` turns
the captured stream into Chrome trace-event JSON for
``chrome://tracing`` / Perfetto, or plain JSONL.

Typical use::

    tracer = Tracer(sim, capacity=10_000)
    tracer.enable("irq", "mailbox")
    ...
    for event in tracer.select(category="irq", after=1.0):
        print(event)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.sim.engine import Simulator

#: Event phases, following the Chrome trace-event convention:
#: ``"i"`` instant, ``"B"`` span begin, ``"E"`` span end.
PHASE_INSTANT = "i"
PHASE_BEGIN = "B"
PHASE_END = "E"


@dataclass(frozen=True)
class TraceEvent:
    """One captured event."""

    time: float
    category: str
    name: str
    #: Free-form key=value detail (kept small; this is a debug channel).
    detail: Tuple[Tuple[str, Any], ...] = ()
    #: ``"i"`` (instant), ``"B"`` (span begin) or ``"E"`` (span end).
    phase: str = PHASE_INSTANT

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.detail:
            if k == key:
                return v
        return default

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.detail)
        marker = "" if self.phase == PHASE_INSTANT else f"{self.phase} "
        return (f"[{self.time:.6f}] {marker}{self.category}:{self.name} "
                f"{detail}").rstrip()


class Tracer:
    """A bounded, category-filtered event recorder.

    The buffer is a ring: when full, appending a new event *evicts* the
    oldest one.  :attr:`emitted` counts every event ever recorded,
    :attr:`evicted` counts how many were pushed out of the ring — so
    ``len(tracer) == emitted - evicted`` always holds.
    """

    #: Records events (of its enabled categories): hot sites must call it.
    live = True

    def __init__(self, sim: Simulator, capacity: int = 65536):
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.sim = sim
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self._enabled: Optional[set] = set()  # None = everything
        #: Events pushed out of the ring by newer ones (oldest-first).
        self.evicted = 0
        self.emitted = 0
        #: Running per-(category, name) counts of events *in the buffer*,
        #: maintained on emit/evict so :meth:`counts_by_name` never walks
        #: the ring.
        self._counts: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    # control
    # ------------------------------------------------------------------
    def enable(self, *categories: str) -> None:
        """Enable specific categories (cumulative)."""
        if self._enabled is None:
            self._enabled = set()
        self._enabled.update(categories)

    def enable_all(self) -> None:
        self._enabled = None

    def disable(self, *categories: str) -> None:
        if self._enabled is None:
            raise ValueError("disable specific categories only after "
                             "enabling specific ones")
        self._enabled.difference_update(categories)

    def is_enabled(self, category: str) -> bool:
        return self._enabled is None or category in self._enabled

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------
    def emit(self, category: str, name: str, **detail: Any) -> None:
        """Record an instant event if its category is enabled."""
        if not self.is_enabled(category):
            return
        self._record(category, name, detail, PHASE_INSTANT)

    def begin(self, category: str, name: str, **detail: Any) -> None:
        """Open a span: pairs with a later :meth:`end` of the same
        category/name (spans of the same category may nest)."""
        if not self.is_enabled(category):
            return
        self._record(category, name, detail, PHASE_BEGIN)

    def end(self, category: str, name: str, **detail: Any) -> None:
        """Close the innermost open span of this category/name."""
        if not self.is_enabled(category):
            return
        self._record(category, name, detail, PHASE_END)

    def _record(self, category: str, name: str, detail: Dict[str, Any],
                phase: str) -> None:
        events = self._events
        if len(events) == self.capacity:
            # The ring is full: appending evicts the oldest event.
            oldest = events[0]
            self.evicted += 1
            old_key = (oldest.category, oldest.name)
            remaining = self._counts[old_key] - 1
            if remaining:
                self._counts[old_key] = remaining
            else:
                del self._counts[old_key]
        self.emitted += 1
        key = (category, name)
        self._counts[key] = self._counts.get(key, 0) + 1
        events.append(TraceEvent(self.sim.now, category, name,
                                 tuple(detail.items()), phase))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Backwards-compatible alias for :attr:`evicted`."""
        return self.evicted

    def __len__(self) -> int:
        return len(self._events)

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def select(self, category: Optional[str] = None,
               name: Optional[str] = None,
               after: Optional[float] = None,
               before: Optional[float] = None) -> Iterator[TraceEvent]:
        """Filter captured events."""
        for event in self._events:
            if category is not None and event.category != category:
                continue
            if name is not None and event.name != name:
                continue
            if after is not None and event.time < after:
                continue
            if before is not None and event.time >= before:
                continue
            yield event

    def counts_by_name(self, category: Optional[str] = None) -> Dict[str, int]:
        """Per-name counts of events currently in the buffer (O(distinct
        names), from the running tallies — the ring is never walked)."""
        counts: Dict[str, int] = {}
        for (cat, name), count in self._counts.items():
            if category is not None and cat != category:
                continue
            counts[name] = counts.get(name, 0) + count
        return counts

    def clear(self) -> None:
        self._events.clear()
        self._counts.clear()
        self.evicted = 0
        self.emitted = 0


class NullTracer:
    """The do-nothing tracer installed by default: hot sites skip it by
    reading ``live``, and cold sites' calls do nothing."""

    live = False

    def emit(self, category: str, name: str, **detail: Any) -> None:
        pass

    def begin(self, category: str, name: str, **detail: Any) -> None:
        pass

    def end(self, category: str, name: str, **detail: Any) -> None:
        pass

    def is_enabled(self, category: str) -> bool:
        return False


#: Shared default instance (stateless, so sharing is safe).
NULL_TRACER = NullTracer()
