"""Offline simulator tests."""

import numpy as np

from repro.config import CacheParams, KB, LLCConfig
from repro.core.srrip import SRRIPPolicy
from repro.sim.offline import simulate_trace
from repro.streams import Stream
from repro.trace import synth

from helpers import make_trace


def test_accepts_name_and_instance(small_llc_config):
    trace = synth.cyclic_scan(64, 2)
    by_name = simulate_trace(trace, "srrip", small_llc_config)
    by_instance = simulate_trace(trace, SRRIPPolicy(), small_llc_config)
    assert by_name.misses == by_instance.misses


def test_results_deterministic(small_llc_config):
    trace = synth.random_trace(2000, 1024, seed=9)
    a = simulate_trace(trace, "gspc", small_llc_config)
    b = simulate_trace(trace, "gspc", small_llc_config)
    assert a.misses == b.misses
    assert a.stats.snapshot() == b.stats.snapshot()


def test_cold_cache_all_misses(small_llc_config, sequential_trace):
    result = simulate_trace(sequential_trace, "lru", small_llc_config)
    assert result.misses == len(sequential_trace)
    assert result.hits == 0


def test_full_reuse_hits(small_llc_config):
    trace = synth.cyclic_scan(num_blocks=64, repetitions=4)
    result = simulate_trace(trace, "lru", small_llc_config)
    assert result.misses == 64
    assert result.hits == 3 * 64


def test_ucd_policy_bypasses_display(small_llc_config):
    trace = make_trace(
        [(i, Stream.DISPLAY, True) for i in range(16)]
        + [(100 + i, Stream.RT, True) for i in range(16)]
    )
    result = simulate_trace(trace, "drrip+ucd", small_llc_config)
    assert result.stats.per_stream[Stream.DISPLAY].bypasses == 16
    assert result.stats.per_stream[Stream.RT].misses == 16


def test_belady_gets_future_automatically(small_llc_config):
    trace = synth.cyclic_scan(num_blocks=2048, repetitions=3)
    opt = simulate_trace(trace, "belady", small_llc_config)
    lru = simulate_trace(trace, "lru", small_llc_config)
    # Cyclic reuse beyond capacity: LRU gets nothing, OPT keeps a
    # cache-sized slice.
    assert opt.misses < lru.misses


def test_extras_contain_fill_fractions(small_llc_config):
    trace = synth.cyclic_scan(64, 2)
    result = simulate_trace(trace, "drrip", small_llc_config)
    fractions = result.extras["fill_distant_fraction"]
    assert set(fractions) == {"Z", "TEX", "RT", "OTHER"}


def test_trace_meta_propagates(small_llc_config):
    trace = synth.cyclic_scan(16, 1)
    result = simulate_trace(trace, "nru", small_llc_config)
    assert "cyclic_scan" in result.workload_name


def test_build_llc_observer_attached(small_llc_config):
    """simulate_trace hands an observer its run's record once, after
    the replay, whichever engine ran it."""
    from repro.sim.offline import replay

    class Probe:
        def __init__(self):
            self.calls = []

        def observe(self, trace, record, geometry):
            self.calls.append((trace, record, geometry))

    trace = synth.random_trace(500, 256, seed=2)
    expected = replay(trace, "lru", small_llc_config)
    for engine in ("reference", "fast"):
        probe = Probe()
        result = simulate_trace(
            trace, "lru", small_llc_config, observer=probe, engine=engine
        )
        [(seen, record, geometry)] = probe.calls
        assert seen is trace
        assert record.result is result
        assert np.array_equal(record.outcomes, expected.outcomes)
        assert np.array_equal(
            record.resident_addresses, expected.resident_addresses
        )
        assert geometry.num_sets == small_llc_config.num_sets


def test_tiny_llc_capacity_bound():
    config = LLCConfig(params=CacheParams(1 * KB, ways=2), banks=1)
    trace = synth.cyclic_scan(num_blocks=8, repetitions=10)
    result = simulate_trace(trace, "lru", config)
    assert result.misses == 8  # working set fits: only cold misses
