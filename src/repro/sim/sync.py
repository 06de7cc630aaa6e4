"""Conservative synchronization between independent event engines.

Multi-host scenarios give every host its own :class:`~repro.sim.engine
.Simulator`.  The engines stay causally consistent the SimBricks way:
nothing crosses the fabric in less than the uplink latency ``L``, so
each engine may free-run up to ``min(egress frontier anywhere) + L``
without risk of receiving a message from its past.  :class:`LockstepBarrier`
computes those windows; the cluster coordinator drives every host to
each window end, exchanges the messages that surfaced, and repeats.

Each engine reports an **egress frontier**: no message it emits from
now on can leave it before that time.  An engine stepping event by
event reports its next event, lowered to the earliest routed message
still waiting to be injected into it.  An engine that replays its
transmit side ahead (a collapsed cluster host,
:mod:`repro.sim.fluid_host`) reports the horizon it has already
transmitted to: everything it sends below that time is already in the
coordinator's hands, and a message injected into it cannot make it send
earlier.  Two properties the rest of the stack leans on:

* **No time travel.**  A window ends at or before ``floor + L``, where
  ``floor`` is the smallest frontier.  Any message an engine emits from
  here on leaves at some ``t >= floor`` and arrives at ``t + L`` plus a
  positive serialization, strictly after the window end — so arrivals
  always land after every engine's clock and ``schedule_at`` never sees
  the past.  Messages an engine handed over early (below its frontier)
  are routed only once every other frontier has passed them, so each
  destination still sees its arrivals in the global ``(t, source,
  sequence)`` order.
* **Determinism.**  Window boundaries depend only on event timestamps,
  frontiers and pending arrivals — pure float arithmetic, identical
  whether the hosts step serially in one process or in parallel worker
  processes.
"""

from __future__ import annotations

from typing import Iterable, Optional


class LockstepBarrier:
    """Window calculator for conservatively synchronized engines."""

    def __init__(self, lookahead: float):
        if lookahead <= 0:
            raise ValueError("lookahead must be positive (it is the "
                             "minimum cross-engine message latency)")
        self.lookahead = lookahead
        #: Synchronization rounds computed so far (observability only).
        self.windows = 0

    def next_window(self, until: float,
                    frontiers: Iterable[Optional[float]],
                    pending_arrivals: Iterable[float]) -> float:
        """The next safe horizon; ``until`` when no work precedes it.

        ``frontiers`` are the engines' egress frontiers (None for an
        idle engine); ``pending_arrivals`` are routed cross-engine
        messages not yet injected into an engine whose frontier they
        bound (see the module docstring).  The window is the smallest
        of them plus the lookahead, clamped to ``until``.  When nothing
        lies at or below ``until`` the caller runs everyone to
        ``until`` and stops; that free run is not counted in
        :attr:`windows`.
        """
        floor = None
        for candidate in list(frontiers) + list(pending_arrivals):
            if candidate is None or candidate > until:
                continue
            if floor is None or candidate < floor:
                floor = candidate
        if floor is None:
            return until
        self.windows += 1
        return min(until, floor + self.lookahead)
