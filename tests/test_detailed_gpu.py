"""Detailed (event-driven) GPU model tests."""

import dataclasses

import pytest

from repro.config import DDR3_1867, GPU_SMALL, paper_baseline
from repro.gpu.detailed import DetailedGPUSimulator, simulate_frame_detailed
from repro.gpu.timing import simulate_frame_timing
from repro.sim.offline import replay
from repro.trace import synth


@pytest.fixture(scope="module")
def system():
    return paper_baseline(llc_mb=8, scale=0.125)


@pytest.fixture(scope="module")
def trace():
    return synth.producer_consumer(512, 5, consume_fraction=0.7, gap_blocks=2048)


def test_basic_run(system, trace):
    timing = simulate_frame_detailed(trace, "drrip", system)
    assert timing.frame_ns > 0
    assert timing.accesses == len(trace)
    assert 0.0 <= timing.row_hit_rate <= 1.0
    assert timing.mshr_stall_fraction >= 0.0


def test_deterministic(system, trace):
    a = simulate_frame_detailed(trace, "gspc", system)
    b = simulate_frame_detailed(trace, "gspc", system)
    assert a.frame_ns == b.frame_ns


def test_fewer_misses_faster(system, trace):
    simulator = DetailedGPUSimulator(system)
    opt = simulator.run(trace, replay(trace, "belady", system.llc))
    lru = simulator.run(trace, replay(trace, "lru", system.llc))
    assert opt.misses < lru.misses
    assert opt.frame_ns < lru.frame_ns


def test_ordering_agrees_with_windowed_model(system, trace):
    """Both timing models must rank OPT above LRU on the same trace."""
    detailed_opt = simulate_frame_detailed(trace, "belady", system)
    detailed_lru = simulate_frame_detailed(trace, "lru", system)
    windowed_opt = simulate_frame_timing(trace, "belady", system)
    windowed_lru = simulate_frame_timing(trace, "lru", system)
    assert detailed_opt.speedup_over(detailed_lru) > 1.0
    assert windowed_opt.speedup_over(windowed_lru) > 1.0


def test_faster_dram_helps(system, trace):
    fast = dataclasses.replace(system, dram=DDR3_1867)
    base_t = simulate_frame_detailed(trace, "drrip", system)
    fast_t = simulate_frame_detailed(trace, "drrip", fast)
    assert fast_t.frame_ns < base_t.frame_ns


def test_fewer_contexts_slower(system, trace):
    small = dataclasses.replace(system, gpu=GPU_SMALL)
    base_t = simulate_frame_detailed(trace, "drrip", system)
    small_t = simulate_frame_detailed(trace, "drrip", small)
    assert small_t.frame_ns >= base_t.frame_ns


def test_mshr_pressure_reported(system):
    """A pure miss storm must put pressure on the MSHR pool."""
    storm = synth.cyclic_scan(num_blocks=65536, repetitions=1)
    timing = simulate_frame_detailed(storm, "lru", system)
    assert timing.misses == len(storm)
    assert timing.mshr_stall_fraction > 0.0


def test_fps_full_scale_correction(system, trace):
    timing = simulate_frame_detailed(trace, "lru", system)
    corrected = dataclasses.replace(timing, scale=0.5)
    assert corrected.fps_full_scale == pytest.approx(corrected.fps * 0.25)
