"""Render-cache front-end tests."""

import numpy as np

from repro.cache.hierarchy import RenderCacheFrontEnd
from repro.config import KB, CacheParams, RenderCachesConfig
from repro.streams import Stream


def _tiny_caches():
    small = CacheParams(512, ways=2)
    return RenderCachesConfig(
        vertex=small,
        hiz=small,
        stencil=small,
        render_target=small,
        z=small,
        texture_l1=small,
        texture_l2=CacheParams(1 * KB, ways=2),
        texture_l3=CacheParams(2 * KB, ways=2),
    )


def test_miss_reaches_llc_trace():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.Z)
    assert len(front.sink) == 1
    trace = front.sink.build()
    assert trace[0].stream is Stream.Z
    assert not trace[0].is_write


def test_render_cache_hit_filtered():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.Z)
    front.access_blocks([0], Stream.Z)      # absorbed by the Z cache
    assert front.raw_accesses == 2
    assert len(front.sink) == 1


def test_dirty_eviction_emits_store():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.RT, is_write=True)
    # One set has 2 ways: two more blocks in the same set evict block 0.
    sets = front.caches[Stream.RT].num_sets
    front.access_blocks([sets * 64], Stream.RT)
    front.access_blocks([2 * sets * 64], Stream.RT)
    trace = front.sink.build()
    writes = [a for a in trace if a.is_write]
    assert len(writes) == 1
    assert writes[0].address == 0
    assert writes[0].stream is Stream.RT


def test_texture_hierarchy_three_levels():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.TEXTURE)
    assert len(front.sink) == 1       # L1, L2, L3 all missed
    front.access_blocks([0], Stream.TEXTURE)   # L1 hit
    assert len(front.sink) == 1
    assert front.texture_levels[0].stats.hits == 1


def test_texture_l2_backstop():
    front = RenderCacheFrontEnd(_tiny_caches())
    l1_blocks = front.texture_levels[0].num_sets * front.texture_levels[0].ways
    # Touch more blocks than L1 holds, then re-touch the first: L1
    # misses but L2 (larger) still hits, so nothing reaches the LLC.
    for block in range(l1_blocks + 1):
        front.access_blocks([block * 64], Stream.TEXTURE)
    before = len(front.sink)
    front.access_blocks([0], Stream.TEXTURE)
    assert len(front.sink) == before
    assert front.texture_levels[1].stats.hits >= 1


def test_display_and_other_uncached_internally():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.DISPLAY, is_write=True)
    front.access_blocks([0], Stream.DISPLAY, is_write=True)
    front.access_blocks([64], Stream.OTHER)
    assert len(front.sink) == 3


def test_batch_path_matches_scalar_path():
    addresses = np.array([0, 64, 0, 128, 64], dtype=np.uint64)
    scalar = RenderCacheFrontEnd(_tiny_caches())
    for address in addresses.tolist():
        scalar.access_blocks([address], Stream.Z)
    batch = RenderCacheFrontEnd(_tiny_caches())
    batch.access_blocks(addresses, Stream.Z)
    assert np.array_equal(
        scalar.sink.build().addresses, batch.sink.build().addresses
    )
    assert scalar.raw_accesses == batch.raw_accesses


def test_streams_use_separate_caches():
    front = RenderCacheFrontEnd(_tiny_caches())
    front.access_blocks([0], Stream.Z)
    front.access_blocks([0], Stream.STENCIL)   # different cache: still a miss
    assert len(front.sink) == 2
