"""Discrete-event simulation substrate.

Everything in the reproduction runs on this kernel: hardware models,
the hypervisor, drivers, workloads and the migration engine are all
event-driven objects scheduled on a single :class:`Simulator`.

The kernel is deliberately small and fully deterministic:

* :class:`Simulator` — the event loop (a priority queue of timestamped
  callbacks with stable FIFO tie-breaking).
* :class:`Process` — generator-based cooperative processes for code that
  reads better as a sequential script (e.g. the migration manager).
* :class:`Condition` — a one-shot waitable event processes can block on.
* :mod:`repro.sim.rand` — named, independently seeded random streams so
  adding a new consumer never perturbs existing ones.
* :mod:`repro.sim.stats` — counters, rate meters, histograms and
  series used by every measurement in the benchmarks.
"""

from repro.sim.engine import EventHandle, Simulator, SimulationError
from repro.sim.process import Condition, Interrupt, Process
from repro.sim.rand import RandomStreams
from repro.sim.stats import (
    Counter,
    Histogram,
    RateMeter,
    Series,
)

__all__ = [
    "Condition",
    "Counter",
    "EventHandle",
    "Histogram",
    "Interrupt",
    "Process",
    "RandomStreams",
    "RateMeter",
    "Series",
    "SimulationError",
    "Simulator",
]
