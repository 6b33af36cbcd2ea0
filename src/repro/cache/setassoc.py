"""A fast generic LRU set-associative cache.

Used for the small render caches in front of the LLC (vertex, HiZ, Z,
stencil, render target, and the texture hierarchy levels).  Each set is a
Python dict from block address to dirty flag; insertion order doubles as
LRU order (hits pop and re-insert), so the first key is the LRU block.
:meth:`LRUCache.filter` runs a whole batch in one loop and returns what
the batch sends on to the next level.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

from repro.config import CacheParams
from repro.utils.bitops import ilog2


@dataclasses.dataclass
class SetAssocStats:
    """Hit/miss accounting for one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class LRUCache:
    """Set-associative, write-back, write-allocate LRU cache."""

    __slots__ = (
        "name",
        "num_sets",
        "ways",
        "block_bits",
        "set_mask",
        "_sets",
        "stats",
    )

    def __init__(self, params: CacheParams, name: str = "cache") -> None:
        self.name = name
        self.num_sets = params.num_sets
        self.ways = params.ways
        self.block_bits = ilog2(params.block_bytes)
        self.set_mask = self.num_sets - 1
        self._sets: List[dict] = [{} for _ in range(self.num_sets)]
        self.stats = SetAssocStats()

    def filter(
        self, addresses: Sequence[int], is_write: bool = False
    ) -> Tuple[List[int], bytearray]:
        """Run a batch of byte addresses through the cache, in order.

        Returns ``(emitted, stores)``: the accesses the batch sends to the
        next level and one 0/1 store flag for each.  A hit emits nothing;
        it moves the block to MRU and ORs ``is_write`` into its dirty bit.
        A miss on a full set evicts the LRU block; a dirty victim's
        write-back is emitted as a store, before the miss.  The miss
        itself is emitted as a load, even for a store.
        """
        shift = self.block_bits
        set_mask = self.set_mask
        ways = self.ways
        sets = self._sets
        emitted: List[int] = []
        stores = bytearray()
        emit = emitted.append
        flag = stores.append
        hits = evictions = writebacks = 0
        for address in addresses:
            block = address >> shift
            cache_set = sets[block & set_mask]
            dirty = cache_set.pop(block, None)
            if dirty is not None:
                cache_set[block] = dirty or is_write
                hits += 1
                continue
            if len(cache_set) >= ways:
                for victim in cache_set:
                    break
                evictions += 1
                if cache_set.pop(victim):
                    writebacks += 1
                    emit(victim << shift)
                    flag(1)
            cache_set[block] = is_write
            emit(address)
            flag(0)
        stats = self.stats
        stats.hits += hits
        stats.misses += len(addresses) - hits
        stats.evictions += evictions
        stats.writebacks += writebacks
        return emitted, stores

    def access(self, address: int, is_write: bool = False) -> Tuple[bool, Optional[int]]:
        """Access one byte address: ``(hit, dirty_victim_address or None)``."""
        emitted, _ = self.filter((address,), is_write)
        return not emitted, emitted[0] if len(emitted) == 2 else None

    def contains(self, address: int) -> bool:
        """Presence check without touching LRU state or statistics."""
        block = address >> self.block_bits
        return block in self._sets[block & self.set_mask]

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty blocks."""
        dirty = sum(sum(1 for d in s.values() if d) for s in self._sets)
        for cache_set in self._sets:
            cache_set.clear()
        return dirty

    def __repr__(self) -> str:
        return (
            f"LRUCache({self.name!r}, sets={self.num_sets}, ways={self.ways})"
        )
