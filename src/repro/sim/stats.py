"""Measurement primitives.

Every number the benchmarks print flows through one of these:

* :class:`Counter` — a plain monotonic count (packets delivered, VM exits).
* :class:`RateMeter` — counts over a window, read back as events/second.
* :class:`Histogram` — fixed-bin histogram with percentile queries
  (latency distributions).
* :class:`Series` — (time, value) samples for timeline figures
  (the migration throughput plots, Figs. 20-21).
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Sequence, Tuple


class Counter:
    """A monotonic event counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Counter {self.name}={self.value}>"


class RateMeter:
    """Counts events between :meth:`reset` points; reads back as a rate.

    Used e.g. by the AIC policy, which samples packets-per-second once a
    second (§5.3 of the paper) to adapt the interrupt frequency.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._count: float = 0.0
        self._window_start: float = 0.0

    def add(self, amount: float = 1.0) -> None:
        self._count += amount

    def rate(self, now: float) -> float:
        """Events per second since the last reset (0 for an empty window)."""
        elapsed = now - self._window_start
        if elapsed <= 0:
            return 0.0
        return self._count / elapsed

    def reset(self, now: float) -> None:
        self._count = 0.0
        self._window_start = now

    @property
    def count(self) -> float:
        return self._count


class Histogram:
    """A histogram over fixed-width bins with percentile queries."""

    def __init__(self, bin_width: float, name: str = ""):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.name = name
        self.bin_width = bin_width
        self._bins: Dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._sum_sq = 0.0

    def add(self, value: float) -> None:
        index = int(math.floor(value / self.bin_width))
        self._bins[index] = self._bins.get(index, 0) + 1
        self._count += 1
        self._sum += value
        self._sum_sq += value * value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def stdev(self) -> float:
        if self._count < 2:
            return 0.0
        mean = self.mean
        var = max(0.0, self._sum_sq / self._count - mean * mean)
        return math.sqrt(var)

    def percentile(self, p: float) -> float:
        """Return the lower edge of the bin containing the p-th percentile."""
        if not 0 <= p <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            return 0.0
        target = self._count * p / 100.0
        cumulative = 0
        for index in sorted(self._bins):
            cumulative += self._bins[index]
            if cumulative >= target:
                return index * self.bin_width
        return max(self._bins) * self.bin_width

    def items(self) -> List[Tuple[float, int]]:
        """(bin lower edge, count) pairs in ascending order."""
        return [(i * self.bin_width, c) for i, c in sorted(self._bins.items())]


class Series:
    """Timestamped samples, for timeline figures.

    Supports windowed aggregation (``bucketize``) which is how the
    migration benchmarks turn per-event samples into the per-second
    throughput traces of Figs. 20-21.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._values: List[float] = []

    def record(self, time: float, value: float) -> None:
        if self._times and time < self._times[-1]:
            raise ValueError("series timestamps must be non-decreasing")
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    def value_at(self, time: float, default: float = 0.0) -> float:
        """Most recent value at or before ``time`` (step interpolation)."""
        index = bisect.bisect_right(self._times, time) - 1
        if index < 0:
            return default
        return self._values[index]

    def window_sum(self, start: float, end: float) -> float:
        """Sum of sample values with start <= t < end."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return sum(self._values[lo:hi])

    def percentile(self, q: float) -> float:
        """The q-th percentile of the recorded *values* (order
        statistics with linear interpolation, ignoring timestamps).

        Unlike :meth:`Histogram.percentile` this is exact — a Series
        keeps every sample — which is what the campaign hub's
        cross-cell aggregates need: a fleet of tens of cells would
        alias badly through fixed-width bins.
        """
        if not 0 <= q <= 100:
            raise ValueError("percentile must be in [0, 100]")
        if not self._values:
            raise ValueError(f"series {self.name!r} is empty: "
                             "no percentiles")
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        rank = (len(ordered) - 1) * q / 100.0
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def summary(self, percentiles: Sequence[float] = (50, 90, 99)
                ) -> Dict[str, float]:
        """One dict summarizing the recorded values: ``count``/``sum``
        always, plus ``min``/``max``/``mean`` and a ``p<q>`` entry per
        requested percentile when the series is non-empty.

        Keys are deterministic for a given argument list, so the dict
        is safe to embed in byte-compared JSON documents.
        """
        doc: Dict[str, float] = {"count": len(self._values),
                                 "sum": sum(self._values)}
        if not self._values:
            return doc
        doc["min"] = min(self._values)
        doc["max"] = max(self._values)
        doc["mean"] = doc["sum"] / len(self._values)
        for q in percentiles:
            label = f"{q:g}"
            doc[f"p{label}"] = self.percentile(q)
        return doc

    def bucketize(self, start: float, end: float, width: float) -> List[Tuple[float, float]]:
        """Aggregate sample values into fixed-width buckets.

        Returns (bucket start, sum of values in bucket) pairs covering
        [start, end).
        """
        if width <= 0:
            raise ValueError("bucket width must be positive")
        # Bucket edges are computed as start + i * width rather than by
        # repeated addition: over the thousands of buckets a long
        # migration timeline produces, accumulating ``t += width``
        # drifts by many ULPs and misassigns edge samples.
        buckets: List[Tuple[float, float]] = []
        index = 0
        while True:
            lo = start + index * width
            if lo >= end:
                break
            hi = min(start + (index + 1) * width, end)
            buckets.append((lo, self.window_sum(lo, hi)))
            index += 1
        return buckets
