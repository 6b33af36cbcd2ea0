"""Reuse-distance analysis tests."""

import numpy as np
import pytest

from repro.analysis.reuse import (
    COLD,
    compute_reuse_profile,
    reuse_distance_summary,
    reuse_distances,
)
from repro.streams import Stream
from repro.trace import synth

from helpers import make_trace


def _reference(blocks):
    """O(n^2) reference stack-distance implementation."""
    out = []
    for i, block in enumerate(blocks):
        previous = None
        for j in range(i - 1, -1, -1):
            if blocks[j] == block:
                previous = j
                break
        if previous is None:
            out.append(COLD)
        else:
            out.append(len(set(blocks[previous + 1 : i])))
    return out


def test_simple_sequence():
    # b a c a b : a reused over {c} (1), b reused over {a, c} (2).
    blocks = [1, 2, 3, 2, 1]
    assert reuse_distances(blocks).tolist() == [COLD, COLD, COLD, 1, 2]


def test_immediate_reuse_distance_zero():
    assert reuse_distances([5, 5]).tolist() == [COLD, 0]


def test_matches_reference_on_random():
    rng = np.random.default_rng(3)
    blocks = rng.integers(0, 12, size=150).tolist()
    assert reuse_distances(blocks).tolist() == _reference(blocks)


def test_cyclic_scan_distance_equals_footprint():
    trace = synth.cyclic_scan(num_blocks=32, repetitions=2)
    distances = reuse_distances(trace.block_addresses().tolist())
    # Every second-round access sees all 31 other blocks in between.
    assert set(distances[32:].tolist()) == {31}


def test_reuse_distance_summary_by_hand():
    # a a b c d a: distances COLD, 0, COLD, COLD, COLD, 3 ({b, c, d}).
    trace = make_trace(
        [(block, Stream.TEXTURE) for block in (1, 1, 2, 3, 4, 1)]
    )
    summary = reuse_distance_summary(trace)
    assert summary == pytest.approx(
        {
            "accesses": 6.0,
            "cold_fraction": 4 / 6,
            "mean": 1.5,
            "p50": 1.5,
            "p90": 2.7,
            "p99": 2.97,
            "max": 3.0,
        }
    )


def test_reuse_distance_summary_all_cold():
    trace = make_trace([(block, Stream.Z) for block in range(5)])
    assert reuse_distance_summary(trace) == {
        "accesses": 5.0,
        "cold_fraction": 1.0,
        "mean": 0.0,
        "p50": 0.0,
        "p90": 0.0,
        "p99": 0.0,
        "max": 0.0,
    }


def test_profile_cold_fraction():
    trace = synth.cyclic_scan(num_blocks=16, repetitions=4)
    profile = compute_reuse_profile(trace)
    assert profile.cold == 16
    assert profile.cold_fraction == pytest.approx(0.25)


def test_profile_hit_rate_at_capacity():
    trace = synth.cyclic_scan(num_blocks=32, repetitions=4)
    profile = compute_reuse_profile(trace)
    # Capacity >= footprint: everything warm hits.
    assert profile.hit_rate_at_capacity(64) == pytest.approx(3 / 4)
    # Capacity below the cycle: LRU gets nothing.
    assert profile.hit_rate_at_capacity(16) == 0.0


def test_profile_per_stream_uses_global_interleaving():
    # The Z access reuses its block over the two TEX accesses between.
    trace = make_trace(
        [(0, Stream.Z), (1, Stream.TEXTURE), (2, Stream.TEXTURE), (0, Stream.Z)]
    )
    profile = compute_reuse_profile(trace, stream=Stream.Z)
    assert profile.accesses == 2
    assert profile.cold == 1
    assert profile.median_distance == 2.0


def test_histogram_counts_sum_to_warm_accesses():
    trace = synth.random_trace(length=500, footprint_blocks=64, seed=4)
    profile = compute_reuse_profile(trace)
    assert sum(count for _, count in profile.histogram) == (
        profile.accesses - profile.cold
    )


def test_empty_trace_profile():
    from repro.trace.record import TraceBuilder

    profile = compute_reuse_profile(TraceBuilder().build())
    assert profile.accesses == 0
    assert profile.median_distance is None
    assert profile.hit_rate_at_capacity(100) == 0.0
