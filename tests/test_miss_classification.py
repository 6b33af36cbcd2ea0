"""Miss-classification tests."""

from repro.analysis.misses import classify_misses
from repro.config import CacheParams, KB, LLCConfig
from repro.streams import Stream
from repro.trace import synth

from helpers import make_trace

TINY = LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4)
CAPACITY_BLOCKS = 2 * KB // 64  # 32


def test_sequential_trace_all_cold():
    trace = make_trace([(i, Stream.Z) for i in range(100)])
    breakdown = classify_misses(trace, "lru", TINY)
    assert breakdown.cold == 100
    assert breakdown.capacity == 0
    assert breakdown.conflict == 0
    assert breakdown.miss_rate == 1.0


def test_capacity_misses_on_big_cycle():
    trace = synth.cyclic_scan(num_blocks=CAPACITY_BLOCKS * 4, repetitions=2)
    breakdown = classify_misses(trace, "lru", TINY)
    assert breakdown.cold == CAPACITY_BLOCKS * 4
    assert breakdown.capacity == CAPACITY_BLOCKS * 4  # the second lap
    assert breakdown.conflict == 0


def test_small_working_set_hits():
    trace = synth.cyclic_scan(num_blocks=8, repetitions=10)
    breakdown = classify_misses(trace, "lru", TINY)
    assert breakdown.cold == 8
    assert breakdown.hits == 72


def test_conflict_misses_detected():
    """Blocks mapping to one set overflow its ways while the cache as a
    whole has room: conflict, not capacity."""
    sets = TINY.num_sets
    conflicting = [0, sets, 2 * sets, 3 * sets]  # same set, 4 > 2 ways
    entries = []
    for _ in range(4):
        entries.extend((block, Stream.Z) for block in conflicting)
    breakdown = classify_misses(make_trace(entries), "lru", TINY)
    assert breakdown.cold == 4
    assert breakdown.conflict > 0
    assert breakdown.capacity == 0


def test_totals_match_plain_simulation():
    from repro.sim.offline import simulate_trace

    trace = synth.random_trace(length=2000, footprint_blocks=256, seed=11)
    breakdown = classify_misses(trace, "drrip", TINY)
    result = simulate_trace(trace, "drrip", TINY)
    assert breakdown.misses == result.misses
    assert breakdown.hits == result.hits


def test_totals_match_plain_simulation_with_bypasses():
    """Uncached-stream bypasses are neither hits nor misses; fills a
    policy vetoes are misses — the same split as ``LLCStats``."""
    from repro.config import paper_baseline
    from repro.sim.offline import simulate_trace
    from repro.workloads.apps import app_by_name
    from repro.workloads.framegen import generate_frame_trace

    trace = generate_frame_trace(app_by_name("3DMarkVAGT1"), 0, 1 / 32)
    llc = paper_baseline(llc_mb=8, scale=1 / 32).llc
    for policy in ("drrip+ucd", "gspc+bypass"):
        breakdown = classify_misses(trace, policy, llc)
        result = simulate_trace(trace, policy, llc)
        assert (breakdown.hits, breakdown.misses) == (
            result.hits,
            result.misses,
        ), policy


def test_belady_reduces_conflict_bucket():
    trace = synth.random_trace(length=3000, footprint_blocks=128, seed=2)
    lru = classify_misses(trace, "lru", TINY)
    opt = classify_misses(trace, "belady", TINY)
    assert opt.misses <= lru.misses
    assert opt.cold == lru.cold  # cold misses are policy-independent


def test_fractions():
    trace = make_trace([(0, Stream.Z), (1, Stream.Z)])
    breakdown = classify_misses(trace, "lru", TINY)
    assert breakdown.fraction("cold") == 1.0
    assert breakdown.fraction("conflict") == 0.0
