"""Reuse-distance analysis.

A trace's *reuse-distance profile* — for each access, how many distinct
blocks were touched since the previous access to the same block —
determines what any capacity-limited cache can do with it, independent
of policy.  These tools diagnose the synthetic workloads: the paper's
qualitative results need a specific mixture of immediate reuse
(absorbed by render caches), mid-range reuse (policy-sensitive), and
far cyclic reuse (OPT-only).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.streams import Stream
from repro.trace.record import Trace

#: Marker for cold (first-touch) accesses.
COLD = -1


def reuse_distances(blocks: Sequence[int]) -> np.ndarray:
    """Exact LRU stack distances, ``COLD`` for first touches.

    Runs in O(n log n) using a Fenwick tree over access timestamps —
    fast enough for multi-hundred-thousand-access frames.
    """
    n = len(blocks)
    distances = np.full(n, COLD, dtype=np.int64)
    last_position: Dict[int, int] = {}
    # Fenwick tree marking positions that are each block's most recent
    # access; the stack distance is the count of marked positions after
    # the previous access to this block.
    tree = [0] * (n + 1)

    def update(position: int, delta: int) -> None:
        index = position + 1
        while index <= n:
            tree[index] += delta
            index += index & (-index)

    def prefix_sum(position: int) -> int:
        index = position + 1
        total = 0
        while index > 0:
            total += tree[index]
            index -= index & (-index)
        return total

    for position, block in enumerate(blocks):
        previous = last_position.get(block)
        if previous is not None:
            # Distinct blocks touched strictly between the accesses.
            distances[position] = prefix_sum(position - 1) - prefix_sum(previous)
            update(previous, -1)
        last_position[block] = position
        update(position, +1)
    return distances


def reuse_distance_summary(trace: Trace) -> Dict[str, float]:
    """JSON-ready digest of a trace's :func:`reuse_distances`.

    ``cold_fraction`` is the share of first-touch accesses; the
    percentiles describe the stack-distance distribution of the
    *re-accesses* only (in 64 B blocks — compare directly against an
    LLC capacity in blocks).
    """
    distances = reuse_distances(trace.block_addresses().tolist())
    reused = distances[distances != COLD]
    summary: Dict[str, float] = {
        "accesses": float(len(distances)),
        "cold_fraction": (
            1.0 - len(reused) / len(distances) if len(distances) else 0.0
        ),
    }
    if len(reused):
        summary.update(
            mean=float(reused.mean()),
            p50=float(np.percentile(reused, 50)),
            p90=float(np.percentile(reused, 90)),
            p99=float(np.percentile(reused, 99)),
            max=float(reused.max()),
        )
    else:
        summary.update(mean=0.0, p50=0.0, p90=0.0, p99=0.0, max=0.0)
    return summary


@dataclasses.dataclass(frozen=True)
class ReuseProfile:
    """Histogram summary of a trace's reuse distances."""

    accesses: int
    cold: int
    #: (upper_bound_exclusive, count) pairs; the last bound is inf.
    histogram: Tuple[Tuple[float, int], ...]
    median_distance: Optional[float]

    @property
    def cold_fraction(self) -> float:
        return self.cold / self.accesses if self.accesses else 0.0

    def hit_rate_at_capacity(self, capacity_blocks: int) -> float:
        """Hit rate of a fully-associative LRU cache of that capacity.

        By Mattson's stack-inclusion property, every access with stack
        distance < capacity hits; this bounds set-associative caches
        from above and gives a policy-free view of the trace.
        """
        if self.accesses == 0:
            return 0.0
        hits = 0
        for bound, count in self.histogram:
            if bound <= capacity_blocks:
                hits += count
        return hits / self.accesses


def compute_reuse_profile(
    trace: Trace,
    stream: Optional[Stream] = None,
    bounds: Sequence[int] = (16, 64, 256, 1024, 4096, 16384, 65536),
) -> ReuseProfile:
    """Reuse-distance profile of a trace (optionally one stream only).

    With ``stream`` given, distances are still computed over the *full*
    trace (interleaving matters) but only that stream's accesses are
    histogrammed.
    """
    blocks = trace.block_addresses().tolist()
    distances = reuse_distances(blocks)
    if stream is not None:
        mask = trace.stream_mask(stream)
        selected = distances[mask]
    else:
        selected = distances
    warm = selected[selected != COLD]
    cold = int((selected == COLD).sum())
    histogram: List[Tuple[float, int]] = []
    previous_bound = 0
    for bound in bounds:
        count = int(((warm >= previous_bound) & (warm < bound)).sum())
        histogram.append((float(bound), count))
        previous_bound = bound
    histogram.append((float("inf"), int((warm >= previous_bound).sum())))
    return ReuseProfile(
        accesses=int(selected.size),
        cold=cold,
        histogram=tuple(histogram),
        median_distance=float(np.median(warm)) if warm.size else None,
    )
