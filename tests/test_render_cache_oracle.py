"""The batch LRU of the render caches against a one-access-at-a-time oracle.

The oracle is the textbook LRU: one ``OrderedDict`` per set, a hit moves
the block to the end, a miss on a full set pops the first.  It shares no
code with :class:`repro.cache.setassoc.LRUCache`.  The semantics held:

* a hit moves the block to MRU and ORs the store flag into its dirty bit;
* a miss on a full set evicts the least recently used block;
* a dirty victim's write-back is emitted as a store, before the miss;
* the miss itself is emitted as a load, even for a store;
* texture levels never emit write-backs, and L2 (L3) is touched only on
  an L1 (L2) miss.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.cache.setassoc import LRUCache
from repro.config import CacheParams, RenderCachesConfig
from repro.streams import Stream

BLOCK = 64
POOL_BLOCKS = 12


class OracleLRU:
    """One ``OrderedDict`` per set, walked one access at a time."""

    def __init__(self, num_sets, ways):
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.ways = ways
        self.counts = dict(hits=0, misses=0, evictions=0, writebacks=0)

    def access(self, address, store):
        """The (address, store) pairs this access sends to the next level."""
        block = address // BLOCK
        lines = self.sets[block % len(self.sets)]
        if block in lines:
            lines.move_to_end(block)
            lines[block] = lines[block] or store
            self.counts["hits"] += 1
            return []
        self.counts["misses"] += 1
        emitted = []
        if len(lines) == self.ways:
            victim, dirty = lines.popitem(last=False)
            self.counts["evictions"] += 1
            if dirty:
                self.counts["writebacks"] += 1
                emitted.append((victim * BLOCK, True))
        lines[block] = store
        return emitted + [(address, False)]


def _params(num_sets, ways):
    return CacheParams(num_sets * ways * BLOCK, ways=ways)


geometries = st.tuples(st.sampled_from([1, 2, 4]), st.integers(1, 4))

addresses = st.tuples(
    st.integers(0, POOL_BLOCKS - 1), st.sampled_from([0, 8, 63])
).map(lambda pair: pair[0] * BLOCK + pair[1])

batches = st.lists(
    st.tuples(st.lists(addresses, max_size=12), st.booleans()), max_size=10
)


@settings(max_examples=100, deadline=None)
@given(geometry=geometries, batches=batches)
def test_batch_filter_matches_oracle(geometry, batches):
    num_sets, ways = geometry
    cache = LRUCache(_params(num_sets, ways))
    oracle = OracleLRU(num_sets, ways)
    for batch, store in batches:
        emitted, stores = cache.filter(batch, store)
        expected = [
            pair for address in batch for pair in oracle.access(address, store)
        ]
        assert list(zip(emitted, map(bool, stores))) == expected
    stats = cache.stats
    assert oracle.counts == dict(
        hits=stats.hits,
        misses=stats.misses,
        evictions=stats.evictions,
        writebacks=stats.writebacks,
    )
    for block in range(POOL_BLOCKS):
        lines = oracle.sets[block % num_sets]
        assert cache.contains(block * BLOCK) == (block in lines)


front_batches = st.lists(
    st.tuples(
        st.sampled_from([Stream.TEXTURE, Stream.RT]),
        st.lists(addresses, max_size=12),
        st.booleans(),
    ),
    max_size=10,
)


@settings(max_examples=100, deadline=None)
@given(
    levels=st.tuples(geometries, geometries, geometries),
    rt=geometries,
    batches=front_batches,
)
def test_front_end_matches_per_access_levels(levels, rt, batches):
    caches = RenderCachesConfig(
        render_target=_params(*rt),
        texture_l1=_params(*levels[0]),
        texture_l2=_params(*levels[1]),
        texture_l3=_params(*levels[2]),
    )
    front = RenderCacheFrontEnd(caches)
    texture_oracles = [OracleLRU(*geometry) for geometry in levels]
    rt_oracle = OracleLRU(*rt)
    expected = []
    for stream, batch, store in batches:
        front.access_blocks(np.array(batch, dtype=np.uint64), stream, store)
        for address in batch:
            if stream is Stream.RT:
                emitted = rt_oracle.access(address, store)
            else:
                # Each level is touched only when every level above missed.
                emitted = [(address, False)]
                for oracle in texture_oracles:
                    if not oracle.access(address, False):
                        emitted = []
                        break
            expected += [(a, int(stream), w) for a, w in emitted]
    trace = front.sink.build()
    assert list(
        zip(trace.addresses.tolist(), trace.streams.tolist(), trace.writes.tolist())
    ) == expected
    for level, oracle in zip(front.texture_levels, texture_oracles):
        assert level.stats.writebacks == 0
        assert level.stats.hits == oracle.counts["hits"]
        assert level.stats.misses == oracle.counts["misses"]
