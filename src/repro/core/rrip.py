"""Shared re-reference interval prediction (RRIP) machinery.

All RRIP-family policies (SRRIP, BRRIP, DRRIP, GS-DRRIP, SHiP and the
GSPC family) share the same victim-selection rule: evict the block with
RRPV ``2**n - 1``; if none exists, increment every block's RRPV in the
set until one reaches it; break ties toward the smallest way id
(Section 1 of the paper).
"""

from __future__ import annotations

from typing import List

from repro.cache.geometry import CacheGeometry
from repro.core.base import AccessContext, ReplacementPolicy


class RRIPPolicy(ReplacementPolicy):
    """Base class holding a per-block RRPV array and the victim scan."""

    def __init__(self, rrpv_bits: int = 2) -> None:
        super().__init__()
        self.rrpv_bits = rrpv_bits
        self.max_rrpv = (1 << rrpv_bits) - 1
        #: RRPV of insertion for long re-reference interval ("distant").
        self.distant_rrpv = self.max_rrpv
        #: RRPV of insertion for intermediate re-reference interval.
        self.long_rrpv = self.max_rrpv - 1
        self.rrpv: List[int] = []

    def bind(self, geometry: CacheGeometry) -> None:
        super().bind(geometry)
        self.rrpv = [self.max_rrpv] * (geometry.num_sets * geometry.ways)
        # fill_rrpv_counts[stream class][rrpv] — Figure 8 reports the
        # fraction of RT and TEX fills inserted with the distant RRPV.
        self.fill_rrpv_counts = [
            [0] * (self.max_rrpv + 1) for _ in range(4)
        ]

    def insert(self, ctx: AccessContext, way: int, value: int) -> None:
        """Install a fill RRPV and record it for fill-RRPV statistics."""
        self.rrpv[ctx.set_index * self.geometry.ways + way] = value
        self.fill_rrpv_counts[ctx.sclass][value] += 1

    def fill_fraction_at(self, sclass: int, value: int) -> float:
        """Fraction of class ``sclass`` fills inserted with RRPV ``value``."""
        counts = self.fill_rrpv_counts[sclass]
        total = sum(counts)
        return counts[value] / total if total else 0.0

    def select_victim(self, ctx: AccessContext) -> int:
        """Age the set until some RRPV saturates; evict the lowest way."""
        ways = self.geometry.ways
        base = ctx.set_index * ways
        rrpv = self.rrpv
        set_rrpvs = rrpv[base : base + ways]
        oldest = max(set_rrpvs)
        victim = set_rrpvs.index(oldest)
        if oldest < self.max_rrpv:
            # One aging step of (max - oldest) is equivalent to repeated
            # unit increments until a block saturates; the first block at
            # the pre-aging maximum is the first to saturate.
            delta = self.max_rrpv - oldest
            for way in range(ways):
                rrpv[base + way] += delta
        return victim

    # Common default: promote to RRPV 0 on a hit.
    def on_hit(self, ctx: AccessContext, way: int) -> None:
        self.rrpv[ctx.set_index * self.geometry.ways + way] = 0

    def get_rrpv(self, set_index: int, way: int) -> int:
        return self.rrpv[set_index * self.geometry.ways + way]
