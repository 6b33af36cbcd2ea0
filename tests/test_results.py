"""SimResult tests."""

import pytest

from repro.cache.stats import LLCStats
from repro.errors import SimulationError
from repro.sim.results import SimResult
from repro.streams import Stream


def _result(policy, misses, accesses=100):
    stats = LLCStats()
    stats.per_stream[Stream.Z].misses = misses
    stats.per_stream[Stream.Z].hits = accesses - misses
    return SimResult(policy=policy, stats=stats, accesses=accesses)


def test_normalization():
    baseline = _result("drrip", 50)
    better = _result("gspc", 40)
    assert better.misses_normalized_to(baseline) == pytest.approx(0.8)


def test_normalization_rejects_different_traces():
    with pytest.raises(SimulationError):
        _result("a", 10, accesses=100).misses_normalized_to(
            _result("b", 10, accesses=200)
        )


def test_zero_miss_baseline():
    baseline = _result("drrip", 0)
    assert _result("x", 0).misses_normalized_to(baseline) == 1.0
    assert _result("x", 5).misses_normalized_to(baseline) == float("inf")


def test_hit_rate_property():
    assert _result("x", 25).hit_rate == pytest.approx(0.75)
