"""The sampled event log of a replay record."""

import json

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import BYPASS, MISS
from repro.core.registry import available_policies
from repro.errors import ObservabilityError
from repro.obs.events import sample_events
from repro.sim.offline import replay
from repro.streams import Stream
from repro.trace import synth

from helpers import make_trace

POLICIES = [
    name + suffix for name in available_policies() for suffix in ("", "+ucd")
]


def _summary(trace, policy, llc_config, sample_period):
    record = replay(trace, policy, llc_config)
    return sample_events(trace, record, llc_config, sample_period)


def _total(summary, key):
    return sum(counts[key] for counts in summary["per_stream"].values())


def _walked_summary(trace, record, llc_config, sample_period):
    """The summary by a walk over every access, in which a per-set fill
    count decides whether a fill evicts."""
    geometry = CacheGeometry.from_config(llc_config)
    fills = {}
    events = []
    for index, (address, stream, outcome) in enumerate(
        zip(trace.addresses.tolist(), trace.streams.tolist(), record.outcomes.tolist())
    ):
        if outcome == BYPASS:
            continue
        set_index = (address >> geometry.block_bits) & (geometry.num_sets - 1)
        kinds = ["hits"]
        if outcome == MISS:
            fills[set_index] = fills.get(set_index, 0) + 1
            full = fills[set_index] > geometry.ways
            kinds = ["evictions", "fills"] if full else ["fills"]
        if index % sample_period == 0:
            events.extend((index, kind, stream, set_index) for kind in kinds)
    per_stream = {s.short_name: {"hits": 0, "fills": 0, "evictions": 0} for s in Stream}
    per_set = {}
    for _, kind, stream, set_index in events:
        per_stream[Stream(stream).short_name][kind] += 1
        blank = {"set": set_index, "hits": 0, "fills": 0, "evictions": 0}
        per_set.setdefault(set_index, blank)[kind] += 1
    names = {"hits": "hit", "fills": "fill", "evictions": "evict"}
    return {
        "events": len(events),
        "events_estimated": len(events) * sample_period,
        "sample_period": sample_period,
        "sets_sampled": len(per_set),
        "per_stream": per_stream,
        "hot_sets": sorted(
            per_set.values(),
            key=lambda entry: entry["hits"] + entry["fills"] + entry["evictions"],
            reverse=True,
        )[:8],
        "sampled": {
            "capacity": 1024,
            "recorded": min(len(events), 1024),
            "pushed": len(events),
            "events": [
                {
                    "access": index,
                    "kind": names[kind],
                    "stream": Stream(stream).short_name,
                    "set": set_index,
                }
                for index, kind, stream, set_index in events[-64:]
            ],
        },
    }


@pytest.mark.parametrize("sample_period", [1, 7, 64])
@pytest.mark.parametrize("policy", ["lru", "drrip+ucd", "gspc+bypass", "belady"])
def test_summary_matches_a_walk_over_every_access(
    small_llc_config, policy, sample_period
):
    """The vectorised summary equals, key order included, one built by
    walking every access of the record."""
    trace = synth.random_trace(6000, 2048, seed=7)
    record = replay(trace, policy, small_llc_config)
    summary = sample_events(trace, record, small_llc_config, sample_period)
    assert json.dumps(summary) == json.dumps(
        _walked_summary(trace, record, small_llc_config, sample_period)
    )


def test_observer_rejects_bad_period(small_llc_config):
    trace = synth.cyclic_scan(num_blocks=8, repetitions=1)
    with pytest.raises(ObservabilityError):
        _summary(trace, "lru", small_llc_config, 0)


def test_period_one_matches_exact_cache_stats(small_llc_config):
    """With every access sampled, the event counts equal LLCStats for
    every registry name, with and without ``+ucd`` (the LLC has enough
    sets for GS-DRRIP's four duels)."""
    trace = synth.random_trace(6000, 2048, seed=7)
    for policy in POLICIES:
        record = replay(trace, policy, small_llc_config)
        summary = sample_events(trace, record, small_llc_config, 1)
        stats = record.result.stats
        for stream in Stream:
            hits = summary["per_stream"][stream.short_name]["hits"]
            assert hits == stats.per_stream[stream].hits, policy
        assert _total(summary, "fills") == stats.fills, policy
        assert _total(summary, "evictions") == stats.evictions, policy
        assert (
            summary["events"] == stats.hits + stats.fills + stats.evictions
        ), policy


def test_sampling_period_decimates_accesses(small_llc_config):
    """Period N gives the events of every N-th access only."""
    trace = synth.random_trace(6400, 2048, seed=3)
    summary = _summary(trace, "lru", small_llc_config, 64)
    # 100 sampled accesses, each a hit, a fill, or an evict and a fill.
    assert 100 <= summary["events"] <= 200
    assert summary["events_estimated"] == summary["events"] * 64
    listed = summary["sampled"]["events"]
    assert len(listed) == 64
    assert all(event["access"] % 64 == 0 for event in listed)
    assert listed[-1]["access"] == 6336


def test_summary_shape(small_llc_config):
    trace = synth.random_trace(3000, 1024, seed=5)
    summary = _summary(trace, "lru", small_llc_config, 4)
    assert summary["sample_period"] == 4
    assert summary["events"] == sum(
        _total(summary, key) for key in ("hits", "fills", "evictions")
    )
    assert summary["events_estimated"] == summary["events"] * 4
    assert set(summary["per_stream"]) == {s.short_name for s in Stream}
    sampled = summary["sampled"]
    assert sampled["capacity"] == 1024
    assert sampled["pushed"] == summary["events"]
    assert sampled["recorded"] == min(summary["events"], 1024)
    assert len(sampled["events"]) == 64
    for event in sampled["events"]:
        assert event["kind"] in ("hit", "fill", "evict")
    activity = [
        entry["hits"] + entry["fills"] + entry["evictions"]
        for entry in summary["hot_sets"]
    ]
    assert len(activity) == 8
    assert activity == sorted(activity, reverse=True)
    assert summary["sets_sampled"] >= len(summary["hot_sets"])


def test_hot_sets_ranked_by_activity(small_llc_config):
    # Set 3: one fill then five hits; set 9: one fill then one hit.
    entries = [(3, Stream.TEXTURE)] * 6 + [(9, Stream.TEXTURE)] * 2
    hot = _summary(make_trace(entries), "lru", small_llc_config, 1)["hot_sets"]
    assert [entry["set"] for entry in hot] == [3, 9]
    assert hot[0]["hits"] == 5
    assert hot[1] == {"set": 9, "hits": 1, "fills": 1, "evictions": 0}


def test_hot_sets_tie_in_first_seen_order(small_llc_config):
    # Sets 9 and 3 each see one fill and one hit; set 9 is seen first.
    entries = [(9, Stream.TEXTURE)] * 2 + [(3, Stream.TEXTURE)] * 2
    hot = _summary(make_trace(entries), "lru", small_llc_config, 1)["hot_sets"]
    assert hot == [
        {"set": 9, "hits": 1, "fills": 1, "evictions": 0},
        {"set": 3, "hits": 1, "fills": 1, "evictions": 0},
    ]


def test_full_reuse_has_no_evictions(small_llc_config):
    trace = synth.cyclic_scan(num_blocks=64, repetitions=4)
    record = replay(trace, "lru", small_llc_config)
    summary = sample_events(trace, record, small_llc_config, 1)
    assert _total(summary, "evictions") == 0
    assert _total(summary, "fills") == record.result.misses
