"""The shared last-level cache engine.

The LLC is non-inclusive/non-exclusive: a miss always fills the
requested block (unless the stream is configured as uncached, or a
bypass-capable policy vetoes the fill), and evictions never invalidate
the internal render caches (Section 2).  The engine owns tags, dirty
bits, and the engine-level RT bit used for the paper's inter-stream
statistics — the latter is deliberately independent of any policy's
own state so every policy can be characterized identically (Figures
5, 6, 13).  This online count is the ground truth that
:func:`repro.sim.epochs.rt_transitions` reproduces from a replay
record for the fast engine.

Replacement decisions are delegated to a
:class:`~repro.core.base.ReplacementPolicy` through the hook interface.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import LLCStats
from repro.core.base import NEVER, AccessContext, ReplacementPolicy
from repro.streams import STREAM_CLASS_TABLE, Stream, StreamClass

#: Result codes of :meth:`LLC.access`.
MISS = 0
HIT = 1
BYPASS = 2

_TEX_CLASS = int(StreamClass.TEX)
_RT_CLASS = int(StreamClass.RT)


class LLC:
    """A banked, set-associative LLC driven by a replacement policy."""

    def __init__(
        self,
        geometry: CacheGeometry,
        policy: ReplacementPolicy,
        uncached_streams: Iterable[Stream] = (),
        writeback_sink=None,
    ) -> None:
        self.geometry = geometry
        self.policy = policy
        policy.bind(geometry)
        self.stats = LLCStats()
        #: Optional callable(access_index, byte_address) invoked for
        #: every dirty eviction — the index is the evicting access's
        #: position, as :func:`repro.sim.offline.replay` records it.
        self.writeback_sink = writeback_sink
        self._uncached = frozenset(int(s) for s in uncached_streams)
        num_sets, ways = geometry.num_sets, geometry.ways
        blocks = num_sets * ways
        #: Per-set tag -> way lookup.
        self._lookup: List[dict] = [{} for _ in range(num_sets)]
        #: Per-slot metadata (slot = set * ways + way).
        self._tag: List[int] = [0] * blocks
        self._dirty: List[bool] = [False] * blocks
        self._rt_flag: List[bool] = [False] * blocks
        #: Number of ways ever filled per set — ways fill in order and
        #: are never invalidated, so this finds free ways in O(1).
        self._filled: List[int] = [0] * num_sets
        self._ctx = AccessContext()
        self._access_index = 0
        # Dense per-stream stats list indexed by int(stream) — avoids an
        # enum construction on every access of the hot loop.
        self._per_stream = [self.stats.per_stream[s] for s in Stream]

    # -- hot path ---------------------------------------------------------

    def access(
        self,
        address: int,
        stream: int,
        is_write: bool = False,
        next_use: int = NEVER,
    ) -> int:
        """Perform one LLC access; returns MISS, HIT, or BYPASS."""
        geometry = self.geometry
        ctx = self._ctx
        stream_int = int(stream)
        block = address >> geometry.block_bits
        set_index = block & (geometry.num_sets - 1)

        ctx.index = self._access_index
        self._access_index += 1
        ctx.address = address
        ctx.block = block
        ctx.set_index = set_index
        ctx.bank = geometry.bank_of_set[set_index]
        ctx.is_sample = geometry.is_sample_set[set_index]
        ctx.stream = stream_int
        ctx.sclass = STREAM_CLASS_TABLE[stream_int]
        ctx.is_write = is_write
        ctx.next_use = next_use

        per_stream = self._per_stream[stream_int]

        if stream_int in self._uncached:
            per_stream.bypasses += 1
            if is_write:
                self.stats.dram_writes += 1
            else:
                self.stats.dram_reads += 1
            return BYPASS

        way = self._lookup[set_index].get(block)
        if way is not None:
            self._record_hit(ctx, way, per_stream)
            return HIT

        per_stream.misses += 1
        self.stats.dram_reads += 1
        if self.policy.should_bypass(ctx):
            # A policy-vetoed fill is still an LLC miss (the data is
            # fetched from DRAM for the requesting render cache); only
            # statically uncached streams count as bypasses.
            if is_write:
                self.stats.dram_writes += 1
            return BYPASS
        self._fill(ctx)
        return MISS

    def _record_hit(self, ctx: AccessContext, way: int, per_stream) -> None:
        slot = ctx.set_index * self.geometry.ways + way
        per_stream.hits += 1
        stats = self.stats
        was_rt = self._rt_flag[slot]
        sclass = ctx.sclass
        if sclass == _TEX_CLASS:
            if was_rt:
                stats.rt_consumed += 1
                self._rt_flag[slot] = False
        elif sclass == _RT_CLASS and not was_rt:
            # A render-target access re-acquires a resident block
            # (render-target object reuse): a fresh production.
            self._rt_flag[slot] = True
            stats.rt_produced += 1
        if ctx.is_write:
            self._dirty[slot] = True
        self.policy.on_hit(ctx, way)

    def _fill(self, ctx: AccessContext) -> None:
        set_index = ctx.set_index
        ways = self.geometry.ways
        if self._filled[set_index] < ways:
            way = self._filled[set_index]
            self._filled[set_index] += 1
        else:
            way = self.policy.select_victim(ctx)
            self._evict(ctx, set_index, way)
        slot = set_index * ways + way
        stats = self.stats
        stats.fills += 1
        self._lookup[set_index][ctx.block] = way
        self._tag[slot] = ctx.block
        self._dirty[slot] = ctx.is_write
        is_rt = ctx.sclass == _RT_CLASS
        self._rt_flag[slot] = is_rt
        if is_rt:
            stats.rt_produced += 1
        self.policy.on_fill(ctx, way)

    def _evict(self, ctx: AccessContext, set_index: int, way: int) -> None:
        slot = set_index * self.geometry.ways + way
        stats = self.stats
        stats.evictions += 1
        if self._dirty[slot]:
            stats.writebacks += 1
            stats.dram_writes += 1
            if self.writeback_sink is not None:
                self.writeback_sink(
                    ctx.index, self._tag[slot] << self.geometry.block_bits
                )
        self.policy.on_evict(ctx, way)
        self._rt_flag[slot] = False
        del self._lookup[set_index][self._tag[slot]]

    # -- introspection ------------------------------------------------------

    def resident_blocks(self) -> int:
        return sum(self._filled)

    def contains(self, address: int) -> bool:
        block = address >> self.geometry.block_bits
        return block in self._lookup[block & (self.geometry.num_sets - 1)]

    def way_of(self, address: int) -> Optional[int]:
        block = address >> self.geometry.block_bits
        return self._lookup[block & (self.geometry.num_sets - 1)].get(block)

    def rt_flag_of(self, address: int) -> Optional[bool]:
        """Engine-level RT bit of a resident block (None if absent)."""
        way = self.way_of(address)
        if way is None:
            return None
        block = address >> self.geometry.block_bits
        set_index = block & (self.geometry.num_sets - 1)
        return self._rt_flag[set_index * self.geometry.ways + way]

    def __repr__(self) -> str:
        return f"LLC({self.geometry!r}, policy={self.policy.name!r})"
