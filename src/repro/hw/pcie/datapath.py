"""The PCIe data path: a bandwidth-shared DMA pipe.

Inter-VM traffic through an SR-IOV NIC crosses this pipe **twice** —
"the device uses DMA to copy packets from source VM memory to NIC FIFO,
and then from NIC FIFO to target memory.  Both DMA operations need to go
through slow PCIe bus transactions, which limit the total throughput"
(paper §6.3, the explanation of Fig. 13's 2.8 Gbps ceiling).

The model is a serializing server at the link's effective payload rate.
Calibration: an 82576 sits on a PCIe Gen1 x4 link (10 Gb/s raw); after
8b/10b coding and TLP header overhead the usable DMA payload rate is
~5.6 Gb/s, which halves to 2.8 Gb/s when every packet crosses twice.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.stats import Counter
from repro.sim.trace import NULL_TRACER

#: Effective one-way DMA payload bandwidth of the NIC's PCIe link.
DEFAULT_EFFECTIVE_BPS = 5.6e9


class PcieDataPath:
    """Serializes DMA payload transfers over a finite-bandwidth link."""

    def __init__(self, sim: Simulator, effective_bps: float = DEFAULT_EFFECTIVE_BPS,
                 name: str = "pcie"):
        if effective_bps <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.effective_bps = effective_bps
        self.name = name
        self._busy_until: float = 0.0
        self.transferred_bytes = Counter(f"{name}.bytes")
        self.transfers = Counter(f"{name}.transfers")
        #: Installed by the telemetry layer; emits one event per DMA
        #: booking (queue time visible as start - ts).
        self.trace = NULL_TRACER

    def transfer_time(self, size_bytes: int) -> float:
        """Serialized time for a payload of ``size_bytes``."""
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        return size_bytes * 8 / self.effective_bps

    def transfer(self, size_bytes: int,
                 on_done: Optional[Callable[[], None]] = None) -> float:
        """Book a DMA transfer; returns its completion time.

        Transfers serialize: one begins when the pipe frees up.  The
        optional callback fires at completion.
        """
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        now = self.sim.now
        start = max(now, self._busy_until)
        self.book((now,), (size_bytes,))
        finish = self._busy_until
        self.trace.emit("dma", self.name, bytes=size_bytes,
                        start=start, finish=finish)
        if on_done is not None:
            self.sim.schedule_at(finish, on_done)
        return finish

    def book(self, times: Sequence[float], sizes: Sequence[int],
             limit: Optional[float] = None,
             finishes: Optional[List[float]] = None) -> int:
        """Book a transfer of ``sizes[i]`` bytes issued at ``times[i]``,
        in order, each starting when issued or when the pipe frees up;
        returns how many were booked.  With ``limit``, booking stops at
        the first transfer issued while the pipe is more than ``limit``
        seconds behind (the TX FIFO bound); ``finishes`` collects each
        finish time.  Issue times may lie in the past of ``sim.now``:
        the fluid datapath books a collapsed window this way."""
        busy = self._busy_until
        rate = self.effective_bps
        booked = 0
        total = 0
        for at, size in zip(times, sizes):
            if limit is not None and busy - at > limit:
                break
            busy = (busy if busy > at else at) + size * 8 / rate
            if finishes is not None:
                finishes.append(busy)
            booked += 1
            total += size
        if booked:
            self._busy_until = busy
            self.transferred_bytes.value += total
            self.transfers.value += booked
        return booked

    @property
    def backlog_seconds(self) -> float:
        """How far ahead of now the pipe is booked."""
        return max(0.0, self._busy_until - self.sim.now)

    def throughput_cap_bps(self, crossings: int = 1) -> float:
        """Achievable payload goodput when each byte crosses N times."""
        if crossings <= 0:
            raise ValueError("crossings must be positive")
        return self.effective_bps / crossings

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` spent moving payload."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.transferred_bytes.value * 8
                   / (self.effective_bps * elapsed))
