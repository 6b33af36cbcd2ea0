"""Miss classification: cold / capacity / conflict.

The classic three-C decomposition, computed from one policy replay's
per-access outcomes (:func:`repro.sim.offline.replay`) plus the trace's
exact LRU stack distances:

* **cold** — first touch of the block (no cache could hit);
* **capacity** — the block's reuse distance exceeds the cache's total
  block capacity (a fully-associative LRU cache of the same size would
  also miss);
* **conflict/policy** — everything else: the data was recently enough
  used that a fully-associative LRU cache would have kept it, so the
  miss is attributable to limited associativity or the replacement
  policy's choices.

This is a diagnostic for the reproduction itself: the paper's policies
can only reduce the third bucket (and the capacity bucket, for OPT-like
far-reuse capture), so its size bounds every possible improvement.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.analysis.reuse import COLD, reuse_distances
from repro.cache.llc import HIT
from repro.config import LLCConfig
from repro.core.registry import resolve_policy
from repro.sim.offline import PolicyLike, replay
from repro.trace.record import Trace


@dataclasses.dataclass(frozen=True)
class MissBreakdown:
    """Counts of each miss class for one (trace, policy, LLC) run."""

    accesses: int
    hits: int
    cold: int
    capacity: int
    conflict: int

    @property
    def misses(self) -> int:
        return self.cold + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def fraction(self, kind: str) -> float:
        if self.misses == 0:
            return 0.0
        return getattr(self, kind) / self.misses


def classify_misses(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
) -> MissBreakdown:
    """Run ``policy`` over ``trace`` and classify every miss.

    Hits and misses count exactly as :class:`~repro.cache.stats.LLCStats`
    does: a fill the policy vetoes is still a miss, while an access to a
    statically uncached stream is neither.
    """
    llc_config = llc_config or LLCConfig()
    outcomes = replay(trace, policy, llc_config).outcomes
    _, uncached = resolve_policy(policy)
    cached = ~np.isin(trace.streams, [int(stream) for stream in uncached])
    miss_distances = reuse_distances(
        trace.block_addresses(llc_config.block_bytes).tolist()
    )[(outcomes != HIT) & cached]
    cold = int(np.count_nonzero(miss_distances == COLD))
    capacity = int(
        np.count_nonzero(
            miss_distances >= llc_config.num_sets * llc_config.ways
        )
    )
    return MissBreakdown(
        accesses=len(trace),
        hits=int(np.count_nonzero(outcomes == HIT)),
        cold=cold,
        capacity=capacity,
        conflict=len(miss_distances) - cold - capacity,
    )
