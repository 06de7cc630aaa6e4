"""netperf-style workload generators.

The paper's client machine runs netperf (UDP_STREAM / TCP_STREAM) against
a netserver in each guest (§6.1).  :class:`NetperfStream` reproduces that
as a packet-batch source: it offers traffic at a target rate to a sink
(normally a NIC port) in bursts, so a one-second run at 81 kpps costs the
event engine only ``rate/burst`` events instead of one per packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.net.mac import MacAddress, VLAN_NONE
from repro.net.packet import (
    DEFAULT_MTU,
    Packet,
    PacketPool,
    Protocol,
    packets_per_second,
)
from repro.sim.engine import EventHandle, Simulator
from repro.sim.stats import Counter


@dataclass
class NetperfResult:
    """What a netperf run reports back."""

    offered_pps: float
    sent_packets: int
    sent_bytes: int
    duration: float

    @property
    def offered_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.sent_bytes * 8 / self.duration


class NetperfStream:
    """A constant-rate packet-batch source.

    Parameters
    ----------
    sink:
        Called with a list of packets per burst; typically a NIC port's
        ingress or a VF's transmit entry point.
    throughput_bps:
        Target application goodput; converted to a packet rate using the
        protocol's framing arithmetic.
    burst_interval:
        How often to emit a batch.  250 µs keeps batches small relative to
        driver buffers while holding event counts down.
    jitter:
        Relative burst-size jitter (0 = deterministic).  With e.g. 0.3,
        each burst's packet count is scaled by a uniform factor in
        [0.7, 1.3] drawn from ``rng``, preserving the long-run rate —
        the bursty-arrival stress the AIC redundancy factor absorbs.
    """

    def __init__(
        self,
        sim: Simulator,
        sink: Callable[[List[Packet]], None],
        src: MacAddress,
        dst: MacAddress,
        throughput_bps: float,
        protocol: Protocol = Protocol.UDP,
        mtu: int = DEFAULT_MTU,
        message_bytes: Optional[int] = None,
        vlan: int = VLAN_NONE,
        flow_id: int = 0,
        burst_interval: float = 250e-6,
        jitter: float = 0.0,
        rng=None,
        name: str = "netperf",
        pool: Optional[PacketPool] = None,
    ):
        if throughput_bps < 0:
            raise ValueError("throughput must be non-negative")
        if burst_interval <= 0:
            raise ValueError("burst interval must be positive")
        if not 0 <= jitter < 1:
            raise ValueError("jitter must be in [0, 1)")
        if jitter and rng is None:
            raise ValueError("jitter requires an rng (a random.Random)")
        self.jitter = jitter
        self.rng = rng
        self.sim = sim
        self.sink = sink
        self.src = src
        self.dst = dst
        self.protocol = protocol
        self.mtu = mtu
        self.vlan = vlan
        self.flow_id = flow_id
        self.burst_interval = burst_interval
        self.name = name
        #: The run-scoped allocator, which counts the packets it hands
        #: out; a testbed passes its own, a bare stream gets a private one.
        self.pool = pool if pool is not None else PacketPool()
        self.message_bytes = message_bytes
        self.pps = packets_per_second(throughput_bps, mtu, protocol)
        self.sent = Counter(f"{name}.sent")
        self.sent_bytes = Counter(f"{name}.sent_bytes")
        self._carry: float = 0.0
        self._running = False
        self._started_at: float = 0.0
        self._stopped_at: Optional[float] = None
        self._tick_handle: Optional[EventHandle] = None
        #: Installed by :class:`repro.sim.fluid.FluidFlow` when this
        #: stream is eligible for the collapsed-window fast path.
        self._fluid = None

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin offering traffic at the configured rate."""
        if self._running:
            return
        self._running = True
        self._started_at = self.sim.now
        self._stopped_at = None
        if self._fluid is not None and self._fluid.begin():
            return
        self._tick_handle = self.sim.schedule(self.burst_interval, self._tick)

    def stop(self) -> NetperfResult:
        """Stop the stream and report what was offered."""
        if self._running:
            if self._fluid is not None:
                # Exact stop semantics first: catch up the collapsed
                # ticks, then fall through to cancel the re-armed tick.
                self._fluid.decollapse()
            self._running = False
            self._stopped_at = self.sim.now
            if self._tick_handle is not None:
                self._tick_handle.cancel()
                self._tick_handle = None
        end = self._stopped_at if self._stopped_at is not None else self.sim.now
        return NetperfResult(
            offered_pps=self.pps,
            sent_packets=int(self.sent.value),
            sent_bytes=int(self.sent_bytes.value),
            duration=end - self._started_at,
        )

    @property
    def running(self) -> bool:
        return self._running

    def set_rate(self, throughput_bps: float) -> None:
        """Retarget the offered goodput (used by rate sweeps)."""
        if throughput_bps < 0:
            raise ValueError("throughput must be non-negative")
        if self._fluid is not None:
            # Collapsed ticks were computed at the old rate; replay
            # them before the rate changes, then stay exact.
            self._fluid.decollapse()
        self.pps = packets_per_second(throughput_bps, self.mtu, self.protocol)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if not self._running:
            return
        quota = self.pps * self.burst_interval
        if self.jitter:
            # Scale this burst; the carry keeps the long-run rate exact.
            quota *= 1.0 + self.rng.uniform(-self.jitter, self.jitter)
        quota += self._carry
        count = int(quota)
        self._carry = quota - count
        if count > 0:
            burst = self.pool.acquire_burst(count, self.src, self.dst,
                                            self.mtu, self.vlan,
                                            self.protocol, self.flow_id,
                                            self.sim.now)
            # Direct increments: every packet is mtu-sized, so the byte
            # count is exactly the sum the per-packet loop produced.
            self.sent.value += count
            self.sent_bytes.value += count * self.mtu
            self.sink(burst)
        self._tick_handle = self.sim.schedule(self.burst_interval, self._tick)
