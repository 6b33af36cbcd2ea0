"""Event tracing: the sampled event log of one replay's record.

:func:`sample_events` reads the hit/fill/evict events of every
``sample_period``-th access off the replay record, counts them per
stream and per set, and lists the most recent ones, so a manifest can
show *what* the cache was doing without retaining the whole event
stream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import BYPASS, MISS
from repro.config import LLCConfig
from repro.errors import ObservabilityError
from repro.streams import Stream
from repro.trace.record import Trace

if TYPE_CHECKING:  # repro.sim imports repro.obs
    from repro.sim.results import Replay

#: Event kinds of the log.
HIT, FILL, EVICT = 0, 1, 2
KIND_NAMES = ("hit", "fill", "evict")
#: The log's nominal ring size, the busiest sets and the newest events
#: a summary lists.
RING_CAPACITY = 1024
HOT_SETS = 8
LISTED_EVENTS = 64


def sample_events(
    trace: Trace,
    record: "Replay",
    llc_config: Optional[LLCConfig] = None,
    sample_period: int = 64,
) -> Dict[str, object]:
    """Manifest-ready digest of the events of accesses ``0, N, 2N, ...``
    (``N = sample_period``) of ``record``, ``trace``'s replay.

    Each sampled access gives a hit, a fill, or — once its set has had
    ``ways`` fills, since ways fill in order and are never invalidated —
    an evict then a fill; a bypass gives none.  Multiply sampled counts
    by ``sample_period`` for unbiased estimates (``events_estimated``);
    with ``sample_period=1`` every access is sampled and the per-stream
    counts match the engine's exact :class:`~repro.cache.stats.LLCStats`
    — the cross-check the test suite pins.
    """
    if sample_period < 1:
        raise ObservabilityError(f"sample period must be >= 1: {sample_period}")
    geometry = CacheGeometry.from_config(llc_config or LLCConfig())
    outcomes = record.outcomes
    sampled = np.arange(0, len(outcomes), sample_period)
    sampled = sampled[outcomes[sampled] != BYPASS]
    fills = outcomes[sampled] == MISS
    sets = _set_indices(trace.addresses[sampled], geometry)
    evicts = fills & (sampled > _fill_up_points(trace, outcomes, geometry)[sets])
    # One event per sampled access, two (evict, then fill) per evicting one.
    repeats = 1 + evicts
    kinds = np.repeat(np.where(fills, np.where(evicts, EVICT, FILL), HIT), repeats)
    kinds[(np.cumsum(repeats) - 1)[evicts]] = FILL
    accesses = np.repeat(sampled, repeats)
    streams = np.repeat(trace.streams[sampled], repeats)
    sets = np.repeat(sets, repeats)

    per_stream = np.bincount(
        kinds * len(Stream) + streams, minlength=3 * len(Stream)
    ).reshape(3, len(Stream))
    # Busiest sets first, ties in the order the sets were first seen.
    seen, first, inverse = np.unique(sets, return_index=True, return_inverse=True)
    per_set = np.bincount(inverse * 3 + kinds, minlength=3 * len(seen)).reshape(-1, 3)
    hot = np.lexsort((first, -per_set.sum(axis=1)))[:HOT_SETS]
    pushed = len(kinds)
    newest = slice(max(pushed - LISTED_EVENTS, 0), None)
    return {
        "events": pushed,
        "events_estimated": pushed * sample_period,
        "sample_period": sample_period,
        "sets_sampled": len(seen),
        "per_stream": {
            stream.short_name: {
                "hits": int(per_stream[HIT, stream]),
                "fills": int(per_stream[FILL, stream]),
                "evictions": int(per_stream[EVICT, stream]),
            }
            for stream in Stream
        },
        "hot_sets": [
            {
                "set": set_index,
                "hits": counts[HIT],
                "fills": counts[FILL],
                "evictions": counts[EVICT],
            }
            for set_index, counts in zip(seen[hot].tolist(), per_set[hot].tolist())
        ],
        "sampled": {
            "capacity": RING_CAPACITY,
            "recorded": min(pushed, RING_CAPACITY),
            "pushed": pushed,
            "events": [
                {
                    "access": access,
                    "kind": KIND_NAMES[kind],
                    "stream": Stream(stream).short_name,
                    "set": set_index,
                }
                for access, kind, stream, set_index in zip(
                    accesses[newest].tolist(),
                    kinds[newest].tolist(),
                    streams[newest].tolist(),
                    sets[newest].tolist(),
                )
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
