"""LLC engine tests: hits/misses, eviction, RT-bit statistics, bypass."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import BYPASS, HIT, LLC, MISS
from repro.core.lru import LRUPolicy
from repro.core.srrip import SRRIPPolicy
from repro.streams import Stream


def _llc(num_sets=4, ways=2, policy=None, **kwargs):
    geometry = CacheGeometry(num_sets=num_sets, ways=ways)
    return LLC(geometry, policy or LRUPolicy(), **kwargs)


def _addr(block):
    return block * 64


class TestBasics:
    def test_miss_then_hit(self):
        llc = _llc()
        assert llc.access(_addr(0), Stream.Z) == MISS
        assert llc.access(_addr(0), Stream.Z) == HIT
        assert llc.stats.misses == 1
        assert llc.stats.hits == 1

    def test_fill_on_miss_always(self):
        llc = _llc()
        llc.access(_addr(0), Stream.TEXTURE)
        assert llc.contains(_addr(0))

    def test_eviction_when_set_full(self):
        llc = _llc(num_sets=1, ways=2)
        llc.access(_addr(0), Stream.Z)
        llc.access(_addr(1), Stream.Z)
        llc.access(_addr(2), Stream.Z)  # evicts LRU: block 0
        assert llc.stats.evictions == 1
        assert not llc.contains(_addr(0))
        assert llc.contains(_addr(1))
        assert llc.contains(_addr(2))

    def test_dirty_eviction_counts_writeback(self):
        llc = _llc(num_sets=1, ways=1)
        llc.access(_addr(0), Stream.RT, is_write=True)
        llc.access(_addr(1), Stream.Z)
        assert llc.stats.writebacks == 1
        assert llc.stats.dram_writes == 1

    def test_clean_eviction_no_writeback(self):
        llc = _llc(num_sets=1, ways=1)
        llc.access(_addr(0), Stream.Z)
        llc.access(_addr(1), Stream.Z)
        assert llc.stats.writebacks == 0

    def test_write_hit_dirties_block(self):
        llc = _llc(num_sets=1, ways=1)
        llc.access(_addr(0), Stream.RT)
        llc.access(_addr(0), Stream.RT, is_write=True)
        llc.access(_addr(1), Stream.Z)
        assert llc.stats.writebacks == 1

    def test_per_stream_accounting(self):
        llc = _llc()
        llc.access(_addr(0), Stream.Z)
        llc.access(_addr(0), Stream.Z)
        llc.access(_addr(1), Stream.TEXTURE)
        assert llc.stats.per_stream[Stream.Z].hits == 1
        assert llc.stats.per_stream[Stream.Z].misses == 1
        assert llc.stats.per_stream[Stream.TEXTURE].misses == 1

    def test_resident_blocks(self):
        llc = _llc()
        for block in range(5):
            llc.access(_addr(block), Stream.Z)
        assert llc.resident_blocks() == 5

    def test_dram_reads_count_misses(self):
        llc = _llc()
        llc.access(_addr(0), Stream.Z)
        llc.access(_addr(0), Stream.Z)
        assert llc.stats.dram_reads == 1


class TestInterStreamTracking:
    def test_rt_production_and_consumption(self):
        llc = _llc()
        llc.access(_addr(0), Stream.RT, is_write=True)
        assert llc.rt_flag_of(_addr(0)) is True
        assert llc.stats.rt_produced == 1
        llc.access(_addr(0), Stream.TEXTURE)
        assert llc.stats.rt_consumed == 1
        assert llc.stats.tex_inter_hits == 1
        assert llc.rt_flag_of(_addr(0)) is False

    def test_second_tex_hit_is_intra_stream(self):
        llc = _llc()
        llc.access(_addr(0), Stream.RT, is_write=True)
        llc.access(_addr(0), Stream.TEXTURE)
        llc.access(_addr(0), Stream.TEXTURE)
        assert llc.stats.tex_inter_hits == 1
        assert llc.stats.tex_intra_hits == 1

    def test_display_counts_as_rt_production(self):
        llc = _llc()
        llc.access(_addr(0), Stream.DISPLAY, is_write=True)
        assert llc.stats.rt_produced == 1

    def test_rt_reacquisition_counts_as_new_production(self):
        llc = _llc()
        llc.access(_addr(0), Stream.RT, is_write=True)   # production 1
        llc.access(_addr(0), Stream.TEXTURE)             # consumption 1
        llc.access(_addr(0), Stream.RT, is_write=True)   # production 2
        llc.access(_addr(0), Stream.TEXTURE)             # consumption 2
        assert llc.stats.rt_produced == 2
        assert llc.stats.rt_consumed == 2

    @pytest.mark.parametrize(
        "policy, produced, consumed",
        [
            ("lru", [0, 2, 4, 6], [1, 3, 7]),
            # DISPLAY is uncached: its two accesses bypass the LLC.
            ("lru+ucd", [0, 2], [1, 3]),
        ],
        ids=["lru", "lru+ucd"],
    )
    def test_record_masks_match_the_online_rt_bit(
        self, policy, produced, consumed
    ):
        """``rt_transitions`` reads the RT bit off a replay record as
        the LLC keeps it online: an RT hit on a block whose bit a TEX
        hit cleared produces again, a DISPLAY fill or hit produces
        (DISPLAY is RT-class), a Z hit leaves the bit alone, and a
        ``BYPASS`` neither sets nor reads it.  Both engines' stats agree."""
        from helpers import make_trace
        from repro.config import CacheParams, LLCConfig
        from repro.sim.epochs import rt_transitions
        from repro.sim.offline import build_llc, replay, simulate_trace

        entries = [
            (0, Stream.RT, True),       # 0: RT fill produces
            (0, Stream.TEXTURE),        # 1: consumes, clears the bit
            (0, Stream.RT, True),       # 2: RT hit on a cleared bit produces
            (0, Stream.TEXTURE),        # 3: consumes again
            (1, Stream.DISPLAY, True),  # 4: DISPLAY fill produces
            (2, Stream.TEXTURE),        # 5: TEX fill, bit clear
            (2, Stream.DISPLAY, True),  # 6: DISPLAY hit produces
            (2, Stream.TEXTURE),        # 7: consumes what 6 produced
            (2, Stream.Z),              # 8: Z hit, bit untouched
            (2, Stream.TEXTURE),        # 9: intra-stream
        ]
        trace = make_trace(entries)
        config = LLCConfig(params=CacheParams(4 * 2 * 64, ways=2), banks=1)
        llc = build_llc(policy, config)
        online_produced, online_consumed = [], []
        for index, access in enumerate(
            zip(
                trace.addresses.tolist(),
                trace.streams.tolist(),
                trace.writes.tolist(),
            )
        ):
            before = (llc.stats.rt_produced, llc.stats.rt_consumed)
            llc.access(*access)
            if llc.stats.rt_produced > before[0]:
                online_produced.append(index)
            if llc.stats.rt_consumed > before[1]:
                online_consumed.append(index)
        assert (online_produced, online_consumed) == (produced, consumed)

        record = replay(trace, policy, config, engine="reference")
        masks = rt_transitions(
            trace, record.outcomes, llc.geometry.block_bits
        )
        assert [mask.nonzero()[0].tolist() for mask in masks] == [
            produced,
            consumed,
        ]
        fast = simulate_trace(trace, policy, config, engine="fast").stats
        assert fast.snapshot() == llc.stats.snapshot()
        assert (fast.rt_produced, fast.rt_consumed) == (
            len(produced),
            len(consumed),
        )
        assert fast.tex_inter_hits == len(consumed)
        assert fast.tex_intra_hits == llc.stats.tex_intra_hits

    def test_eviction_clears_rt_flag(self):
        llc = _llc(num_sets=1, ways=1)
        llc.access(_addr(0), Stream.RT, is_write=True)
        llc.access(_addr(1), Stream.Z)          # evicts RT block
        llc.access(_addr(0), Stream.TEXTURE)    # miss, refill as texture
        assert llc.stats.rt_consumed == 0
        assert llc.stats.tex_inter_hits == 0

    def test_consumption_rate(self):
        llc = _llc()
        llc.access(_addr(0), Stream.RT, is_write=True)
        llc.access(_addr(1), Stream.RT, is_write=True)
        llc.access(_addr(0), Stream.TEXTURE)
        assert llc.stats.rt_consumption_rate == pytest.approx(0.5)


class TestBypass:
    def test_uncached_stream_bypasses(self):
        llc = _llc(uncached_streams={Stream.DISPLAY})
        assert llc.access(_addr(0), Stream.DISPLAY, is_write=True) == BYPASS
        assert not llc.contains(_addr(0))
        assert llc.stats.per_stream[Stream.DISPLAY].bypasses == 1
        assert llc.stats.dram_writes == 1

    def test_uncached_read_counts_dram_read(self):
        llc = _llc(uncached_streams={Stream.DISPLAY})
        llc.access(_addr(0), Stream.DISPLAY, is_write=False)
        assert llc.stats.dram_reads == 1

    def test_other_streams_unaffected(self):
        llc = _llc(uncached_streams={Stream.DISPLAY})
        assert llc.access(_addr(0), Stream.RT) == MISS
        assert llc.contains(_addr(0))


class TestObserver:
    def test_observer_receives_events(self):
        """Observers read the engine's events off its replay record."""
        from helpers import make_trace
        from repro.config import CacheParams, LLCConfig
        from repro.obs.events import sample_events
        from repro.sim.epochs import rt_transitions
        from repro.sim.offline import replay

        trace = make_trace(
            [(0, Stream.RT, True), (0, Stream.TEXTURE), (9, Stream.Z)]
        )
        config = LLCConfig(params=CacheParams(64, ways=1), banks=1)
        record = replay(trace, "lru", config, engine="reference")
        events = sample_events(trace, record, config, 1)["sampled"]["events"]
        assert [event["kind"] for event in events] == [
            "fill", "hit", "evict", "fill",
        ]
        assert [event["access"] for event in events] == [0, 1, 2, 2]
        block_bits = CacheGeometry.from_config(config).block_bits
        # The texture hit saw the RT bit.
        _, consumed = rt_transitions(trace, record.outcomes, block_bits)
        assert consumed.tolist() == [False, True, False]


class TestPolicyIntegration:
    def test_srrip_policy_runs(self):
        llc = _llc(num_sets=2, ways=4, policy=SRRIPPolicy())
        for block in range(32):
            llc.access(_addr(block), Stream.Z)
        assert llc.stats.misses == 32
        assert llc.resident_blocks() == 8

    def test_snapshot_keys(self):
        llc = _llc()
        llc.access(_addr(0), Stream.Z)
        snapshot = llc.stats.snapshot()
        for key in ("accesses", "hits", "misses", "per_stream", "hit_rate"):
            assert key in snapshot


class TestWritebackSink:
    def test_sink_receives_victim_addresses(self):
        """The sink gets the evicting access's index and the victim's
        byte address."""
        received = []
        geometry = CacheGeometry(num_sets=1, ways=1)
        llc = LLC(
            geometry,
            LRUPolicy(),
            writeback_sink=lambda index, address: received.append(
                (index, address)
            ),
        )
        llc.access(_addr(5), Stream.RT, is_write=True)
        llc.access(_addr(6), Stream.Z)  # evicts dirty block 5
        assert received == [(1, _addr(5))]

    def test_sink_skipped_for_clean_victims(self):
        received = []
        geometry = CacheGeometry(num_sets=1, ways=1)
        llc = LLC(
            geometry,
            LRUPolicy(),
            writeback_sink=lambda index, address: received.append(address),
        )
        llc.access(_addr(5), Stream.Z)
        llc.access(_addr(6), Stream.Z)
        assert received == []
