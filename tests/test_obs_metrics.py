"""Metrics registry semantics."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_increments():
    counter = Counter("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_counter_rejects_decrease():
    with pytest.raises(ObservabilityError):
        Counter("c").inc(-1)


def test_gauge_moves_both_ways():
    gauge = Gauge("g")
    gauge.set(10)
    gauge.inc(2.5)
    gauge.dec()
    assert gauge.value == pytest.approx(11.5)


def test_histogram_buckets_and_stats():
    histogram = Histogram("h", buckets=(1.0, 10.0))
    for value in (0.5, 1.0, 5.0, 100.0):
        histogram.observe(value)
    snap = histogram.snapshot()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(106.5)
    assert snap["min"] == 0.5 and snap["max"] == 100.0
    # <=1: {0.5, 1.0}; <=10: {5.0}; +inf: {100.0}
    assert snap["buckets"] == {"le_1": 2, "le_10": 1, "inf": 1}
    assert histogram.mean == pytest.approx(106.5 / 4)


def test_histogram_rejects_empty_buckets():
    with pytest.raises(ObservabilityError):
        Histogram("h", buckets=())


def test_registry_get_or_create_is_idempotent():
    registry = MetricsRegistry()
    assert registry.counter("a") is registry.counter("a")
    assert registry.gauge("b") is registry.gauge("b")
    assert registry.histogram("c") is registry.histogram("c")
    assert len(registry) == 3
    assert "a" in registry and "missing" not in registry


def test_registry_rejects_kind_conflicts():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(ObservabilityError):
        registry.gauge("x")
    with pytest.raises(ObservabilityError):
        registry.histogram("x")


def test_registry_snapshot_shape():
    registry = MetricsRegistry()
    registry.counter("sim.accesses").inc(7)
    registry.gauge("sim.resident").set(42)
    registry.histogram("sim.latency", buckets=(1.0,)).observe(0.5)
    snap = registry.snapshot()
    assert snap["counters"] == {"sim.accesses": 7}
    assert snap["gauges"] == {"sim.resident": 42}
    assert snap["histograms"]["sim.latency"]["count"] == 1
    assert registry.to_dict() == snap


def test_registry_reset():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.reset()
    assert len(registry) == 0
    assert registry.counter("a").value == 0
