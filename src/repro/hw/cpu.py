"""CPU cores with per-label cycle accounting.

The paper reports every overhead as CPU utilization percentages measured
with xentop-style accounting: cycles attributed to the guest, to Xen, and
to domain 0 (e.g. Fig. 12's "499 % -> 227 %" totals across a 16-thread
box).  We reproduce that by *accounting*, not instruction simulation:
every handler charges cycles against a (core, label) pair, and
utilization is ``cycles / (elapsed x clock)``.

Two execution styles coexist:

* :meth:`CpuCore.charge` — post-hoc accounting for paths that never
  saturate a core (interrupt handling at < 100 % utilization).  Cheap and
  exact for the utilization arithmetic.
* :class:`Executor` — a serializing server for paths that *do* saturate
  (the single-threaded netback of §6.5): work is queued and processed at
  the core's real service rate, so goodput caps out exactly when the core
  does.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator

#: The testbed's clock: dual quad-core Xeon 5500 at 2.8 GHz (§6.1).
DEFAULT_CLOCK_HZ = 2.8e9


class CpuCore:
    """One hardware thread with labelled cycle accounts."""

    def __init__(self, sim: Simulator, index: int, clock_hz: float = DEFAULT_CLOCK_HZ):
        if clock_hz <= 0:
            raise ValueError("clock must be positive")
        self.sim = sim
        self.index = index
        self.clock_hz = clock_hz
        self._accounts: Dict[str, float] = {}

    def charge(self, label: str, cycles: float) -> None:
        """Attribute ``cycles`` of work on this core to ``label``."""
        if cycles < 0:
            raise ValueError("cannot charge negative cycles")
        self._accounts[label] = self._accounts.get(label, 0.0) + cycles

    def cycles(self, label: Optional[str] = None) -> float:
        """Cycles charged to ``label`` (or to all labels)."""
        if label is None:
            return sum(self._accounts.values())
        return self._accounts.get(label, 0.0)

    def utilization(self, elapsed: float, label: Optional[str] = None) -> float:
        """Fraction of ``elapsed`` seconds spent on ``label`` work."""
        if elapsed <= 0:
            return 0.0
        return self.cycles(label) / (elapsed * self.clock_hz)

    def labels(self) -> List[str]:
        return sorted(self._accounts)

    def reset(self) -> None:
        self._accounts.clear()


class Machine:
    """A multi-core host: the unit the paper reports utilization against.

    Utilization percentages follow the paper's convention: 100 % = one
    fully busy hardware thread, so a 16-thread box tops out at 1600 %
    (Fig. 12 quotes 499 % on this scale).
    """

    def __init__(self, sim: Simulator, core_count: int = 16,
                 clock_hz: float = DEFAULT_CLOCK_HZ):
        if core_count <= 0:
            raise ValueError("need at least one core")
        self.sim = sim
        self.clock_hz = clock_hz
        self.cores = [CpuCore(sim, i, clock_hz) for i in range(core_count)]
        self._epoch = sim.now

    def core(self, index: int) -> CpuCore:
        return self.cores[index]

    def start_measurement(self) -> None:
        """Zero all accounts and restart the measurement window."""
        for core in self.cores:
            core.reset()
        self._epoch = self.sim.now

    @property
    def elapsed(self) -> float:
        return self.sim.now - self._epoch

    def cycles(self, label: Optional[str] = None) -> float:
        return sum(core.cycles(label) for core in self.cores)

    def utilization_percent(self, label: Optional[str] = None,
                            elapsed: Optional[float] = None) -> float:
        """Utilization in "percent of one thread" units (xentop style)."""
        window = self.elapsed if elapsed is None else elapsed
        if window <= 0:
            return 0.0
        return 100.0 * self.cycles(label) / (window * self.clock_hz)

    def utilization_breakdown(self, elapsed: Optional[float] = None) -> Dict[str, float]:
        """Per-label utilization percentages across all cores."""
        labels = sorted({label for core in self.cores for label in core.labels()})
        return {label: self.utilization_percent(label, elapsed) for label in labels}

    def overcommitted_cores(self, elapsed: Optional[float] = None) -> List[int]:
        """Cores whose charged cycles exceed their capacity.

        The charge-based accounting assumes handlers fit in the free
        time of their core; a non-empty result means that assumption
        broke (too many guests pinned to one thread for the offered
        load) and the utilization numbers are no longer physical.
        """
        window = self.elapsed if elapsed is None else elapsed
        if window <= 0:
            return []
        return [core.index for core in self.cores
                if core.cycles() > window * core.clock_hz * (1 + 1e-9)]


class Executor:
    """A serializing work queue bound to one core.

    Work items are processed one at a time at the core's clock rate;
    completion callbacks fire when the item's cycles have elapsed.  The
    queue has a hard bound: submissions beyond it are rejected, which is
    how a saturated netback thread turns into packet drops rather than an
    unbounded backlog.
    """

    def __init__(self, sim: Simulator, core: CpuCore, label: str,
                 queue_limit: int = 4096):
        if queue_limit <= 0:
            raise ValueError("queue limit must be positive")
        self.sim = sim
        self.core = core
        self.label = label
        self.queue_limit = queue_limit
        self._queue: Deque[Tuple[float, Callable[..., Any], tuple]] = deque()
        self._busy = False
        self.rejected = 0
        self.completed = 0

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def busy(self) -> bool:
        return self._busy

    def submit(self, cycles: float, on_done: Callable[..., Any],
               *args: Any) -> bool:
        """Queue ``cycles`` of work that ends in ``on_done(*args)``;
        returns False if the queue is full.

        Callers pass a bound method and its arguments rather than a
        closure, so no function object is built per item.
        """
        if cycles < 0:
            raise ValueError("cannot submit negative work")
        if len(self._queue) >= self.queue_limit:
            self.rejected += 1
            return False
        if self._busy:
            self._queue.append((cycles, on_done, args))
        else:
            # An idle executor has an empty queue: start at once.
            self._busy = True
            self._start(cycles, on_done, args)
        return True

    def _start(self, cycles: float, on_done: Callable[..., Any],
               args: tuple) -> None:
        self.core.charge(self.label, cycles)
        self.sim.schedule(cycles / self.core.clock_hz, self._finish,
                          on_done, args)

    def _finish(self, on_done: Callable[..., Any], args: tuple) -> None:
        self.completed += 1
        on_done(*args)
        if self._queue:
            self._start(*self._queue.popleft())
        else:
            self._busy = False
