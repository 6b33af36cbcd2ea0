"""SamplingObserver correctness and ring-buffer behaviour."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import FILL, HIT, EventRing, SamplingObserver
from repro.sim.offline import simulate_trace
from repro.streams import Stream
from repro.trace import synth

from helpers import make_trace


def test_ring_keeps_newest():
    ring = EventRing(4)
    for i in range(10):
        ring.push((i, HIT, 0, 0))
    assert len(ring) == 4
    assert ring.pushed == 10
    assert [event[0] for event in ring.events()] == [6, 7, 8, 9]


def test_ring_before_wrap():
    ring = EventRing(8)
    for i in range(3):
        ring.push((i, FILL, 1, 2))
    assert [event[0] for event in ring.events()] == [0, 1, 2]


def test_ring_rejects_bad_capacity():
    with pytest.raises(ObservabilityError):
        EventRing(0)


def test_observer_rejects_bad_period():
    with pytest.raises(ObservabilityError):
        SamplingObserver(sample_period=0)


def test_period_one_matches_exact_cache_stats(small_llc_config):
    """With every access forwarded, observer counts equal LLCStats."""
    trace = synth.random_trace(6000, 2048, seed=7)
    observer = SamplingObserver(sample_period=1, ring_capacity=64)
    result = simulate_trace(
        trace, "drrip", small_llc_config, observer=observer
    )
    stats = result.stats
    for stream in Stream:
        assert observer.hits_of(stream) == stats.per_stream[stream].hits
    assert sum(observer.fills_of(s) for s in Stream) == stats.fills
    assert sum(observer.evictions_of(s) for s in Stream) == stats.evictions
    assert observer.sampled_events == stats.hits + stats.fills + stats.evictions


def test_sampling_period_decimates_accesses(small_llc_config):
    """Period N forwards the events of every N-th access only."""
    trace = synth.random_trace(6400, 2048, seed=3)
    observer = SamplingObserver(sample_period=64, ring_capacity=10_000)
    simulate_trace(trace, "lru", small_llc_config, observer=observer)
    sampled_accesses = {event[0] for event in observer.ring.events()}
    assert 0 < len(sampled_accesses) <= len(trace) // 64 + 1
    # The engine decimates per access, so a sampled miss contributes its
    # fill (and possibly evict) under one access index.
    assert observer.estimated_events == observer.sampled_events * 64


def test_summary_shape(small_llc_config):
    trace = synth.random_trace(3000, 1024, seed=5)
    observer = SamplingObserver(sample_period=4)
    simulate_trace(trace, "lru", small_llc_config, observer=observer)
    summary = observer.summary(max_samples=16)
    assert summary["sample_period"] == 4
    assert summary["events"] == observer.sampled_events
    assert summary["events_estimated"] == observer.sampled_events * 4
    assert set(summary["per_stream"]) == {s.short_name for s in Stream}
    assert len(summary["sampled"]["events"]) <= 16
    for event in summary["sampled"]["events"]:
        assert event["kind"] in ("hit", "fill", "evict")
    assert summary["hot_sets"] == observer.hot_sets()
    assert summary["sets_sampled"] >= len(summary["hot_sets"])


def test_hot_sets_ranked_by_activity(small_llc_config):
    observer = SamplingObserver(sample_period=1)
    # Set 3: one fill then five hits; set 9: one fill then one hit.
    entries = [(3, Stream.TEXTURE)] * 6 + [(9, Stream.TEXTURE)] * 2
    simulate_trace(make_trace(entries), "lru", small_llc_config, observer=observer)
    hot = observer.hot_sets(top=2)
    assert [entry["set"] for entry in hot] == [3, 9]
    assert hot[0]["hits"] == 5
    assert hot[1] == {"set": 9, "hits": 1, "fills": 1, "evictions": 0}


def test_full_reuse_has_no_evictions(small_llc_config):
    trace = synth.cyclic_scan(num_blocks=64, repetitions=4)
    observer = SamplingObserver(sample_period=1)
    result = simulate_trace(trace, "lru", small_llc_config, observer=observer)
    assert sum(observer.evictions_of(s) for s in Stream) == 0
    assert sum(observer.fills_of(s) for s in Stream) == result.misses
