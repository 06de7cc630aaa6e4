"""Unit tests for the metrics registry."""

import pytest

from repro.obs.registry import (
    NULL_REGISTRY,
    MetricsError,
    MetricsRegistry,
)


def test_counter_registration_is_idempotent():
    registry = MetricsRegistry()
    a = registry.counter("nic.port0.rx_pkts")
    b = registry.counter("nic.port0.rx_pkts")
    assert a is b
    a.add(3)
    assert registry.snapshot()["nic.port0.rx_pkts"]["value"] == 3


def test_kind_conflict_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(MetricsError):
        registry.histogram("x")
    with pytest.raises(MetricsError):
        registry.gauge("x", lambda: 0)


def test_scope_prefixes_and_nests():
    registry = MetricsRegistry()
    port = registry.scope("nic.port3")
    vf = port.scope("vf1")
    vf.counter("rx_pkts").add()
    assert "nic.port3.vf1.rx_pkts" in registry
    assert registry.names() == ["nic.port3.vf1.rx_pkts"]


def test_gauge_reads_at_snapshot_time():
    registry = MetricsRegistry()
    state = {"n": 1}
    registry.gauge("live", lambda: state["n"])
    assert registry.snapshot()["live"]["value"] == 1
    state["n"] = 7
    assert registry.snapshot()["live"]["value"] == 7


def test_gauge_stringifies_exotic_values():
    registry = MetricsRegistry()
    registry.gauge("obj", lambda: object())
    value = registry.snapshot()["obj"]["value"]
    assert isinstance(value, str)


def test_histogram_render():
    registry = MetricsRegistry()
    hist = registry.histogram("lat", bin_width=0.5)
    for v in (1.0, 2.0, 3.0):
        hist.add(v)
    snap = registry.snapshot()
    assert set(snap["lat"]) == {"type", "count", "mean", "p50", "p99"}
    assert snap["lat"]["count"] == 3
    assert snap["lat"]["mean"] == pytest.approx(2.0)
    registry.histogram("idle")
    assert set(registry.snapshot()["idle"]) == {"type", "count", "mean"}


def test_snapshot_sorted_and_json_stable():
    registry = MetricsRegistry()
    registry.counter("b").add(2)
    registry.counter("a").add(1)
    assert list(registry.snapshot()) == ["a", "b"]
    assert registry.to_json() == registry.to_json()


def test_null_registry_hands_out_noop_instruments():
    counter = NULL_REGISTRY.counter("anything")
    counter.add(5)
    # Null counters support the hot-path contract: a writable ``value``
    # attribute, private per registration, that never reaches a snapshot.
    counter.value += 3
    other = NULL_REGISTRY.scope("x").counter("y")
    assert other is not counter
    assert other.value == 0
    assert NULL_REGISTRY.snapshot() == {}
    assert len(NULL_REGISTRY) == 0
