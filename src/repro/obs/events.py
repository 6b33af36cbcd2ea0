"""Event tracing: a sampling observer of one replay's record.

The observer reads the hit/fill/evict events of every
``sample_period``-th access off the replay record, counts them per
stream and per set, and keeps the most recent ones in a fixed-size ring
buffer, so a manifest can show *what* the cache was doing around any
point of the replay without retaining the whole event stream.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cache.llc import BYPASS, MISS
from repro.errors import ObservabilityError
from repro.streams import Stream
from repro.trace.record import Trace

#: Event kinds recorded by the observer.
HIT, FILL, EVICT = 0, 1, 2
KIND_NAMES = ("hit", "fill", "evict")


class EventRing:
    """A fixed-capacity overwrite-oldest ring of event tuples."""

    __slots__ = ("capacity", "_slots", "_written")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ObservabilityError(f"ring capacity must be positive: {capacity}")
        self.capacity = capacity
        self._slots: List[Optional[Tuple[int, int, int, int]]] = [None] * capacity
        self._written = 0

    def push(self, event: Tuple[int, int, int, int]) -> None:
        self._slots[self._written % self.capacity] = event
        self._written += 1

    def __len__(self) -> int:
        return min(self._written, self.capacity)

    @property
    def pushed(self) -> int:
        """Total events ever pushed (>= len once the ring wraps)."""
        return self._written

    def events(self) -> List[Tuple[int, int, int, int]]:
        """Retained events, oldest first."""
        if self._written <= self.capacity:
            return [e for e in self._slots[: self._written] if e is not None]
        start = self._written % self.capacity
        return [
            e
            for e in self._slots[start:] + self._slots[:start]
            if e is not None
        ]


class SamplingObserver:
    """Samples hit/fill/evict events per stream and per set.

    :meth:`observe` visits accesses ``0, N, 2N, ...`` of a replay
    (``N = sample_period``) and records each one's events: a hit, a
    fill, or — once the access's set has had ``ways`` fills, since ways
    fill in order and are never invalidated — an evict then a fill; a
    bypass has none.  It records per-stream and per-set counters plus a
    detailed event ring.  Multiply sampled counts by ``sample_period``
    for unbiased estimates (:meth:`summary` pre-computes the total);
    with ``sample_period=1`` every access is visited and the per-stream
    counts match the engine's exact :class:`~repro.cache.stats.LLCStats`
    — the cross-check the test suite pins.
    """

    __slots__ = ("sample_period", "ring", "_streams", "_sets")

    def __init__(
        self, sample_period: int = 64, ring_capacity: int = 1024
    ) -> None:
        if sample_period < 1:
            raise ObservabilityError(
                f"sample period must be >= 1: {sample_period}"
            )
        self.sample_period = sample_period
        self.ring = EventRing(ring_capacity)
        num_streams = len(Stream)
        #: per-kind, per-stream sampled counts: _streams[kind][stream].
        self._streams = [[0] * num_streams for _ in range(3)]
        #: set_index -> [sampled hits, fills, evicts]
        self._sets: Dict[int, List[int]] = {}

    def observe(self, trace: Trace, replay, geometry) -> None:
        """Record the events of the sampled accesses of one replay."""
        outcomes = replay.outcomes
        sampled = np.arange(0, len(outcomes), self.sample_period)
        sampled = sampled[outcomes[sampled] != BYPASS]
        fills = outcomes[sampled] == MISS
        sets = _set_indices(trace.addresses[sampled], geometry)
        evicts = fills & (sampled > _fill_up_points(trace, outcomes, geometry)[sets])
        for index, stream, set_index, fill, evict in zip(
            sampled.tolist(),
            trace.streams[sampled].tolist(),
            sets.tolist(),
            fills.tolist(),
            evicts.tolist(),
        ):
            if not fill:
                self._record(HIT, index, stream, set_index)
                continue
            if evict:
                self._record(EVICT, index, stream, set_index)
            self._record(FILL, index, stream, set_index)

    def _record(self, kind: int, index: int, stream: int, set_index: int) -> None:
        self._streams[kind][stream] += 1
        set_counts = self._sets.get(set_index)
        if set_counts is None:
            set_counts = self._sets[set_index] = [0, 0, 0]
        set_counts[kind] += 1
        self.ring.push((index, kind, stream, set_index))

    # -- results ----------------------------------------------------------

    @property
    def sampled_events(self) -> int:
        """Number of events recorded in detail (1 per ``sample_period``)."""
        return self.ring.pushed

    @property
    def estimated_events(self) -> int:
        """Unbiased estimate of total events observed."""
        return self.ring.pushed * self.sample_period

    def hits_of(self, stream: Stream) -> int:
        """Sampled hit count for ``stream`` (exact when period is 1)."""
        return self._streams[HIT][int(stream)]

    def fills_of(self, stream: Stream) -> int:
        return self._streams[FILL][int(stream)]

    def evictions_of(self, stream: Stream) -> int:
        return self._streams[EVICT][int(stream)]

    def hot_sets(self, top: int = 8) -> List[Dict[str, int]]:
        """The ``top`` busiest sets by *sampled* event count."""
        ranked = sorted(
            self._sets.items(), key=lambda item: sum(item[1]), reverse=True
        )
        return [
            {
                "set": set_index,
                "hits": counts[HIT],
                "fills": counts[FILL],
                "evictions": counts[EVICT],
            }
            for set_index, counts in ranked[:top]
        ]

    def summary(self, max_samples: int = 64) -> Dict[str, object]:
        """Manifest-ready digest of everything observed."""
        samples = self.ring.events()[-max_samples:]
        return {
            "events": self.sampled_events,
            "events_estimated": self.estimated_events,
            "sample_period": self.sample_period,
            "sets_sampled": len(self._sets),
            "per_stream": {
                stream.short_name: {
                    "hits": self._streams[HIT][int(stream)],
                    "fills": self._streams[FILL][int(stream)],
                    "evictions": self._streams[EVICT][int(stream)],
                }
                for stream in Stream
            },
            "hot_sets": self.hot_sets(),
            "sampled": {
                "capacity": self.ring.capacity,
                "recorded": len(self.ring),
                "pushed": self.ring.pushed,
                "events": [
                    {
                        "access": access_index,
                        "kind": KIND_NAMES[kind],
                        "stream": Stream(stream).short_name,
                        "set": set_index,
                    }
                    for access_index, kind, stream, set_index in samples
                ],
            },
        }


def _set_indices(addresses: np.ndarray, geometry) -> np.ndarray:
    # The narrowest dtype that holds a set index: a stable argsort of
    # 8- or 16-bit keys is a linear-time radix sort.
    blocks = addresses >> np.uint64(geometry.block_bits)
    sets = blocks & np.uint64(geometry.num_sets - 1)
    return sets.astype(np.min_scalar_type(geometry.num_sets - 1))


def _fill_up_points(trace: Trace, outcomes: np.ndarray, geometry) -> np.ndarray:
    """Per set, the index of the fill that took its last free way.

    Every later fill of the set evicts.  Sets that never fill up get
    ``len(outcomes)``, past every access.
    """
    fills = np.flatnonzero(outcomes == MISS)
    sets = _set_indices(trace.addresses[fills], geometry)
    by_set = fills[np.argsort(sets, kind="stable")]
    counts = np.bincount(sets, minlength=geometry.num_sets)
    full = counts >= geometry.ways
    points = np.full(geometry.num_sets, len(outcomes), dtype=np.int64)
    points[full] = by_set[(np.cumsum(counts) - counts)[full] + geometry.ways - 1]
    return points
