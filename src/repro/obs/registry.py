"""The metrics registry: every instrument, one namespace, one snapshot.

Components register :class:`~repro.sim.stats.Counter` and
:class:`~repro.sim.stats.Histogram` instruments under dotted names
(``nic.port0.rx_pkts``, ``netback.thread3.batches``,
``guest.vm1.interrupts``) and the registry renders them all into one
deterministic JSON document.  Existing ad-hoc component counters (plain
integer attributes all over the device and driver models) are exported
without touching their hot paths via callback *gauges*.

The default platform registry is :data:`NULL_REGISTRY`: registration
returns a shared no-op instrument and snapshots are empty, so
instrumented hot paths cost one no-op method call when telemetry is
off.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim.stats import Counter, Histogram


class MetricsError(ValueError):
    """Registration conflict: same name, different instrument type."""


class MetricsRegistry:
    """A flat namespace of instruments with hierarchical dotted names."""

    def __init__(self) -> None:
        # name -> (kind, instrument-or-callback)
        self._instruments: Dict[str, Tuple[str, Any]] = {}

    # ------------------------------------------------------------------
    # registration (idempotent per name; conflicting kinds raise)
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        return self._register(name, "counter", lambda: Counter(name))

    def histogram(self, name: str, bin_width: float = 1e-5) -> Histogram:
        return self._register(name, "histogram",
                              lambda: Histogram(bin_width, name))

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        """Register a read-at-snapshot callback for an existing counter
        kept elsewhere (e.g. ``lambda: vf.rx_packets``)."""
        existing = self._instruments.get(name)
        if existing is not None and existing[0] != "gauge":
            raise MetricsError(f"metric {name!r} already registered "
                               f"as {existing[0]}")
        self._instruments[name] = ("gauge", read)

    def scope(self, prefix: str) -> "MetricsScope":
        """A view registering everything under ``prefix.``."""
        return MetricsScope(self, prefix)

    def _register(self, name: str, kind: str, factory: Callable[[], Any]):
        existing = self._instruments.get(name)
        if existing is not None:
            if existing[0] != kind:
                raise MetricsError(f"metric {name!r} already registered "
                                   f"as {existing[0]}, not {kind}")
            return existing[1]
        instrument = factory()
        self._instruments[name] = (kind, instrument)
        return instrument

    # ------------------------------------------------------------------
    # introspection / export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def get(self, name: str) -> Optional[Any]:
        entry = self._instruments.get(name)
        return entry[1] if entry else None

    def names(self) -> list:
        return sorted(self._instruments)

    def snapshot(self) -> Dict[str, dict]:
        """``{name: {"type": ..., ...values...}}``, sorted by name.

        The result contains only deterministic simulation quantities —
        never host wall-clock — so identical runs snapshot
        byte-identically.
        """
        out: Dict[str, dict] = {}
        for name in sorted(self._instruments):
            kind, instrument = self._instruments[name]
            out[name] = self._render(kind, instrument)
        return out

    def to_json(self) -> str:
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    @staticmethod
    def _render(kind: str, instrument: Any) -> dict:
        if kind == "counter":
            return {"type": "counter", "value": instrument.value}
        if kind == "gauge":
            value = instrument()
            if not isinstance(value, (int, float, str, bool, type(None))):
                value = str(value)
            return {"type": "gauge", "value": value}
        if kind == "histogram":
            doc = {"type": "histogram", "count": instrument.count,
                   "mean": instrument.mean, "stdev": instrument.stdev}
            if instrument.count:
                doc["p50"] = instrument.percentile(50)
                doc["p99"] = instrument.percentile(99)
            return doc
        raise MetricsError(f"unknown instrument kind {kind!r}")


class MetricsScope:
    """A prefix-applying view over a registry (or another scope)."""

    def __init__(self, registry: "MetricsRegistry", prefix: str):
        self._registry = registry
        self._prefix = prefix.rstrip(".")

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str) -> Counter:
        return self._registry.counter(self._name(name))

    def histogram(self, name: str, bin_width: float = 1e-5) -> Histogram:
        return self._registry.histogram(self._name(name), bin_width)

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        self._registry.gauge(self._name(name), read)

    def scope(self, prefix: str) -> "MetricsScope":
        return MetricsScope(self._registry, self._name(prefix))


class _NullInstrument:
    """Accepts any instrument method call and does nothing.

    Carries a ``value`` attribute so hot paths may use the counter
    fast path (``instrument.value += n``, a plain attribute add)
    instead of a method call; the written value is never read.  Null
    counters are therefore handed out one per registration — a shared
    instance would be a data race in spirit, even if nothing reads it.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def add(self, *args: Any, **kwargs: Any) -> None:
        pass

    def reset(self, *args: Any, **kwargs: Any) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry:
    """The no-op registry: the disabled-telemetry fast path."""

    def counter(self, name: str) -> _NullInstrument:
        return _NullInstrument()

    def histogram(self, name: str, bin_width: float = 1e-5) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        pass

    def scope(self, prefix: str) -> "NullRegistry":
        return self

    def __len__(self) -> int:
        return 0

    def __contains__(self, name: str) -> bool:
        return False

    def get(self, name: str) -> None:
        return None

    def names(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def to_json(self) -> str:
        return "{}"


#: Shared default instance (stateless, so sharing is safe).
NULL_REGISTRY = NullRegistry()
