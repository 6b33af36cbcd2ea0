"""Simulation results: :class:`SimResult` and the :class:`Replay` record."""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping

import numpy as np

from repro.cache.stats import LLCStats
from repro.errors import SimulationError


@dataclasses.dataclass
class SimResult:
    """Outcome of replaying one trace under one policy."""

    policy: str
    stats: LLCStats
    accesses: int
    #: Pre-replay work: array conversions and (for Belady) the
    #: next-use precompute.  Kept separate so policies that need future
    #: knowledge do not report inflated replay time.
    setup_seconds: float = 0.0
    #: Pure replay-loop time; the basis of accesses/second throughput.
    replay_seconds: float = 0.0
    trace_meta: Mapping[str, object] = dataclasses.field(default_factory=dict)
    #: Policy-specific extras (e.g. DRRIP fill-RRPV fractions, epoch data).
    extras: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def elapsed_seconds(self) -> float:
        return self.setup_seconds + self.replay_seconds

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def hits(self) -> int:
        return self.stats.hits

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate

    @property
    def workload_name(self) -> str:
        return str(self.trace_meta.get("name", "unknown"))

    @property
    def replay_accesses_per_second(self) -> float:
        """Replay-loop throughput (setup excluded)."""
        if self.replay_seconds <= 0:
            return 0.0
        return self.accesses / self.replay_seconds

    def misses_normalized_to(self, baseline: "SimResult") -> float:
        """This policy's miss count relative to a baseline run.

        Values below 1.0 mean fewer misses than the baseline, matching
        the normalization of Figures 1, 12 and 14.
        """
        if baseline.accesses != self.accesses:
            raise SimulationError(
                "cannot normalize across different traces: "
                f"{self.accesses} vs {baseline.accesses} accesses"
            )
        if baseline.misses == 0:
            return 1.0 if self.misses == 0 else float("inf")
        return self.misses / baseline.misses


@dataclasses.dataclass
class Replay:
    """One replay's :class:`SimResult` plus what the LLC did per access.

    The record every consumer of a replay reads instead of running its
    own LLC: the GPU timing models walk it, the miss classifier buckets
    it, and the epoch tracker and the sampled event log derive their
    outputs from it.  Both engines produce identical records.
    """

    result: SimResult
    #: ``int8`` code of every access, as :meth:`~repro.cache.llc.LLC.access`
    #: returns it: ``MISS``, ``HIT`` or ``BYPASS``.
    outcomes: np.ndarray
    #: Dirty victims in eviction order: the index of the access whose
    #: fill evicted each one (``int64``), and its byte address
    #: (``uint64``).  An access evicts at most one block.
    victim_indices: np.ndarray
    victim_addresses: np.ndarray
    #: Sorted byte addresses (``uint64``) of the blocks still resident
    #: when the replay ended.
    resident_addresses: np.ndarray

    def victim_by_access(self) -> Dict[int, int]:
        """``{access index: its dirty victim's byte address}``."""
        return dict(
            zip(self.victim_indices.tolist(), self.victim_addresses.tolist())
        )

