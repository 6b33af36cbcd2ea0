"""LLCStats bookkeeping unit tests."""

import pytest

from repro.cache.stats import LLCStats, StreamStats
from repro.streams import Stream, StreamClass


def test_stream_stats_rates():
    stats = StreamStats(hits=3, misses=1, bypasses=2)
    assert stats.accesses == 6
    assert stats.hit_rate == pytest.approx(0.75)
    assert StreamStats().hit_rate == 0.0


def test_totals_aggregate_streams():
    stats = LLCStats()
    stats.per_stream[Stream.Z].hits = 2
    stats.per_stream[Stream.RT].misses = 3
    stats.per_stream[Stream.DISPLAY].bypasses = 1
    assert stats.hits == 2
    assert stats.misses == 3
    assert stats.bypasses == 1
    assert stats.accesses == 6


def test_class_hit_rate_merges_display_into_rt():
    stats = LLCStats()
    stats.per_stream[Stream.RT].hits = 1
    stats.per_stream[Stream.RT].misses = 1
    stats.per_stream[Stream.DISPLAY].hits = 2
    assert stats.class_hits(StreamClass.RT) == 3
    assert stats.class_hit_rate(StreamClass.RT) == pytest.approx(0.75)


def test_rt_hit_rate_excludes_display():
    """Figure 13's 'render target hit rate' counts blending accesses
    only — not the displayable color stream."""
    stats = LLCStats()
    stats.per_stream[Stream.RT].hits = 1
    stats.per_stream[Stream.RT].misses = 1
    stats.per_stream[Stream.DISPLAY].misses = 100
    assert stats.rt_hit_rate == pytest.approx(0.5)


def test_consumption_rate_zero_without_production():
    assert LLCStats().rt_consumption_rate == 0.0


def test_tex_inter_fraction():
    stats = LLCStats()
    stats.per_stream[Stream.TEXTURE].hits = 4
    stats.rt_consumed = 3
    assert stats.tex_inter_hits == 3
    assert stats.tex_intra_hits == 1
    assert stats.tex_inter_fraction == pytest.approx(0.75)
    assert LLCStats().tex_inter_fraction == 0.0


def test_snapshot_round_trips_per_stream():
    stats = LLCStats()
    stats.per_stream[Stream.TEXTURE].hits = 7
    snapshot = stats.snapshot()
    assert snapshot["per_stream"]["TEX"]["hits"] == 7
    assert snapshot["hits"] == 7
