"""Miss classification: cold / capacity / conflict.

The classic three-C decomposition, computed from a policy run plus the
trace's exact LRU stack distances:

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

from repro.analysis.reuse import COLD, reuse_distances
from repro.cache.llc import HIT
from repro.config import LLCConfig
from repro.core.base import NEVER
from repro.core.registry import resolve_policy
from repro.sim.future import next_use_indices
from repro.sim.offline import PolicyLike, build_llc
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
    instance, uncached = resolve_policy(policy)
    llc = build_llc(instance, llc_config or LLCConfig(), uncached)
    uncached_streams = {int(stream) for stream in uncached}
    capacity_blocks = llc.geometry.num_sets * llc.geometry.ways
    blocks = trace.block_addresses(llc.geometry.block_bytes)
    distances = reuse_distances(blocks.tolist())
    if llc.policy.needs_future:
        next_uses = next_use_indices(blocks).tolist()
    else:
        next_uses = None

    hits = cold = capacity = conflict = 0
    access = llc.access
    addresses = trace.addresses.tolist()
    streams = trace.streams.tolist()
    writes = trace.writes.tolist()
    for index in range(len(addresses)):
        outcome = access(
            addresses[index],
            streams[index],
            writes[index],
            next_uses[index] if next_uses is not None else NEVER,
        )
        if outcome == HIT:
            hits += 1
            continue
        if streams[index] in uncached_streams:
            continue
        distance = distances[index]
        if distance == COLD:
            cold += 1
        elif distance >= capacity_blocks:
            capacity += 1
        else:
            conflict += 1
    return MissBreakdown(
        accesses=len(trace),
        hits=hits,
        cold=cold,
        capacity=capacity,
        conflict=conflict,
    )
