"""Frame-timing simulator tests."""

import dataclasses

import pytest

from repro.config import DDR3_1867, GPU_SMALL, paper_baseline
from repro.gpu.shader import ShaderModel
from repro.gpu.llc_timing import LLCTimingModel
from repro.gpu.timing import FrameTimingSimulator, simulate_frame_timing
from repro.sim.offline import replay
from repro.streams import Stream
from repro.trace import synth


@pytest.fixture(scope="module")
def system():
    return paper_baseline(llc_mb=8, scale=0.125)


@pytest.fixture(scope="module")
def trace():
    return synth.producer_consumer(512, 6, consume_fraction=0.7, gap_blocks=2048)


def test_frame_time_positive(system, trace):
    timing = simulate_frame_timing(trace, "drrip", system)
    assert timing.frame_ns > 0
    assert timing.fps > 0
    assert timing.accesses == len(trace)


def test_breakdown_components_bounded(system, trace):
    timing = simulate_frame_timing(trace, "drrip", system)
    # Windows take max(compute, dram, llc) + exposed, so the total is
    # bounded by the sum of all components and is at least the largest.
    upper = (
        timing.compute_ns + timing.dram_ns + timing.llc_ns + timing.exposed_ns
    )
    assert timing.frame_ns <= upper + 1e-6
    assert timing.frame_ns >= max(
        timing.compute_ns, timing.dram_ns, timing.llc_ns
    )


def test_fewer_misses_is_faster(system, trace):
    simulator = FrameTimingSimulator(system)
    opt = simulator.run(trace, replay(trace, "belady", system.llc))
    lru = simulator.run(trace, replay(trace, "lru", system.llc))
    assert opt.misses < lru.misses
    assert opt.frame_ns < lru.frame_ns
    assert opt.speedup_over(lru) > 1.0


def test_faster_dram_is_faster(system, trace):
    fast = dataclasses.replace(system, dram=DDR3_1867)
    base_t = simulate_frame_timing(trace, "drrip", system)
    fast_t = simulate_frame_timing(trace, "drrip", fast)
    assert fast_t.frame_ns < base_t.frame_ns


def test_smaller_gpu_is_slower(system, trace):
    small = dataclasses.replace(system, gpu=GPU_SMALL)
    base_t = simulate_frame_timing(trace, "drrip", system)
    small_t = simulate_frame_timing(trace, "drrip", small)
    assert small_t.frame_ns > base_t.frame_ns


def test_weaker_gpu_damps_policy_speedups(system, trace):
    """The paper's Section-5.4 observation: a less aggressive GPU has
    internal bottlenecks, so rendering is less sensitive to memory
    system optimizations."""
    small = dataclasses.replace(system, gpu=GPU_SMALL)
    base_speedup = simulate_frame_timing(trace, "belady", system).speedup_over(
        simulate_frame_timing(trace, "lru", system)
    )
    small_speedup = simulate_frame_timing(trace, "belady", small).speedup_over(
        simulate_frame_timing(trace, "lru", small)
    )
    assert base_speedup > 1.0
    assert small_speedup < base_speedup


def test_full_scale_fps_correction():
    timing = dataclasses.replace(
        simulate_frame_timing(
            synth.cyclic_scan(256, 2), "lru", paper_baseline(scale=0.125)
        ),
        scale=0.5,
    )
    assert timing.fps_full_scale == pytest.approx(timing.fps * 0.25)


def test_shader_model_exposed_latency_scales_with_contexts():
    big = ShaderModel(paper_baseline().gpu)
    small = ShaderModel(GPU_SMALL)
    assert small.exposed_latency_ns(100, 50.0) > big.exposed_latency_ns(100, 50.0)
    assert big.exposed_latency_ns(0, 50.0) == 0.0


def test_shader_compute_monotone_in_work():
    model = ShaderModel(paper_baseline().gpu)
    light = model.compute_ns({int(Stream.Z): 10})
    heavy = model.compute_ns({int(Stream.Z): 10, int(Stream.TEXTURE): 100})
    assert heavy > light


def test_llc_timing_occupancy():
    system = paper_baseline()
    model = LLCTimingModel(system.llc, system.gpu)
    assert model.occupancy_ns(0) == 0.0
    assert model.occupancy_ns(1600) == pytest.approx(100.0)  # 4 banks @ 4 GHz
