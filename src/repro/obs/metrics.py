"""A lightweight metrics registry: counters, gauges, and histograms.

The registry is deliberately tiny — a run of the offline simulator
touches the hot loop millions of times, so metric updates must be plain
attribute increments, never dictionary lookups or string formatting.
Instruments are created (or fetched) once by name, held in a local
variable, and updated directly::

    registry = MetricsRegistry()
    replayed = registry.counter("sim.replay.accesses")
    for access in trace:
        ...
        replayed.inc()
    print(registry.snapshot())

Snapshots are plain dicts with stable keys, ready for a run manifest
(:mod:`repro.obs.manifest`) or any JSON sink.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def snapshot(self) -> int:
        return self.value


class Gauge:
    """A value that can go up and down (resident blocks, queue depth…)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def snapshot(self) -> float:
        return self.value


#: Default histogram bucket upper bounds — a 1/2/5 decade ladder that
#: suits both latencies in seconds and integer magnitudes.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
)


class Histogram:
    """A fixed-bucket histogram with count/sum/min/max tracking."""

    __slots__ = ("name", "buckets", "counts", "count", "total", "min", "max")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError(f"histogram {name!r} needs >= 1 bucket")
        self.name = name
        self.buckets = bounds
        #: counts[i] observes values <= buckets[i]; counts[-1] is +Inf.
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "buckets": {
                **{f"le_{bound:g}": count
                   for bound, count in zip(self.buckets, self.counts)},
                "inf": self.counts[-1],
            },
        }


class MetricsRegistry:
    """Owns named instruments; get-or-create by name, kind-checked."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: Dict) -> None:
        for registered in (self._counters, self._gauges, self._histograms):
            if registered is not kind and name in registered:
                raise ObservabilityError(
                    f"metric {name!r} already registered with a different kind"
                )

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._check_unique(name, self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._check_unique(name, self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(
        self, name: str, buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        if name not in self._histograms:
            self._check_unique(name, self._histograms)
            self._histograms[name] = Histogram(name, buckets)
        return self._histograms[name]

    def __contains__(self, name: str) -> bool:
        return (
            name in self._counters
            or name in self._gauges
            or name in self._histograms
        )

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every instrument, grouped by kind."""
        return {
            "counters": {
                name: c.snapshot() for name, c in sorted(self._counters.items())
            },
            "gauges": {
                name: g.snapshot() for name, g in sorted(self._gauges.items())
            },
            "histograms": {
                name: h.snapshot()
                for name, h in sorted(self._histograms.items())
            },
        }

    #: ``to_dict`` is the manifest-facing alias of :meth:`snapshot`.
    to_dict = snapshot

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
