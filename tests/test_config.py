"""Configuration and scaling-model tests."""

import dataclasses

import pytest

from repro.config import (
    DDR3_1600,
    DDR3_1867,
    GPU_BASELINE,
    GPU_SMALL,
    KB,
    MB,
    CacheParams,
    DRAMConfig,
    LLCConfig,
    RenderCachesConfig,
    SystemConfig,
    paper_baseline,
)
from repro.errors import ConfigError


class TestCacheParams:
    def test_paper_llc_geometry(self):
        params = CacheParams(8 * MB, ways=16)
        assert params.num_blocks == 131072
        assert params.num_sets == 8192

    def test_non_power_of_two_ways_allowed(self):
        # The paper's HiZ cache: 12 KB, 24-way -> 8 sets.
        params = CacheParams(12 * KB, ways=24)
        assert params.num_sets == 8

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ConfigError):
            CacheParams(12 * KB, ways=16)  # 12 sets

    def test_rejects_capacity_not_multiple_of_block(self):
        with pytest.raises(ConfigError):
            CacheParams(100, ways=1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            CacheParams(0, ways=4)

    def test_scaled_preserves_block_size(self):
        scaled = CacheParams(8 * MB, ways=16).scaled(1 / 64)
        assert scaled.block_bytes == 64
        assert scaled.capacity_bytes == 8 * MB // 64

    def test_scaled_clamps_to_min_sets(self):
        scaled = CacheParams(1 * KB, ways=4).scaled(1 / 1024, min_sets=2)
        assert scaled.num_sets >= 2

    def test_scaled_rejects_nonpositive_factor(self):
        with pytest.raises(ConfigError):
            CacheParams(8 * MB, ways=16).scaled(0)


class TestLLCConfig:
    def test_paper_defaults(self):
        llc = LLCConfig()
        assert llc.num_sets == 8192
        assert llc.ways == 16
        assert llc.banks == 4
        assert llc.sets_per_bank == 2048
        assert llc.sample_period == 64  # 16 samples per 1024 sets

    def test_scaled_shrinks_banks_with_capacity(self):
        scaled = LLCConfig().scaled(1 / 64)
        assert scaled.banks < 4
        assert scaled.num_sets == 8192 // 64

    def test_scaled_keeps_followers_majority(self):
        scaled = LLCConfig().scaled(1 / 64)
        assert scaled.sample_period >= 4

    def test_rejects_bad_banks(self):
        with pytest.raises(ConfigError):
            LLCConfig(banks=3)

    def test_rejects_more_banks_than_sets(self):
        with pytest.raises(ConfigError):
            LLCConfig(params=CacheParams(4 * KB, ways=16), banks=8)


class TestDRAM:
    def test_ddr3_1600_peak_bandwidth(self):
        # Dual channel x 64-bit x 1600 MT/s = 25.6 GB/s.
        assert DDR3_1600.peak_bandwidth_gbps == pytest.approx(25.6)

    def test_row_miss_slower_than_row_hit(self):
        assert DDR3_1600.row_miss_ns() > DDR3_1600.row_hit_ns()

    def test_faster_part_has_lower_latency(self):
        assert DDR3_1867.row_hit_ns() < DDR3_1600.row_hit_ns()

    def test_burst_transfer_cycles(self):
        assert DDR3_1600.transfer_cycles == 4  # BL8 on a DDR bus

    def test_rejects_bad_channels(self):
        with pytest.raises(ConfigError):
            DRAMConfig(channels=0)

    @pytest.mark.parametrize(
        "field, value",
        [("channels", 3), ("banks_per_channel", 6), ("row_bytes", 3000)],
    )
    def test_rejects_non_power_of_two_geometry(self, field, value):
        """Channel, bank and row decode slice address bits, so a
        geometry that is not a power of two is refused where it is
        configured, not left for a timing model to trip over."""
        with pytest.raises(ConfigError, match=field):
            DRAMConfig(**{field: value})


class TestGPU:
    def test_baseline_matches_paper(self):
        assert GPU_BASELINE.thread_contexts == 768
        assert GPU_BASELINE.texture_samplers == 12
        # "aggregate peak throughput of nearly 2.5 TFLOPS"
        assert GPU_BASELINE.peak_tflops == pytest.approx(2.4576, rel=1e-3)
        # "peak texture fill rate of 76.8 GTexels/second"
        assert GPU_BASELINE.peak_texel_rate_gtexels == pytest.approx(76.8)

    def test_small_gpu_matches_section_5_4(self):
        assert GPU_SMALL.thread_contexts == 512
        assert GPU_SMALL.texture_samplers == 8

    def test_llc_latency_ns(self):
        assert GPU_BASELINE.llc_latency_ns == pytest.approx(5.0)


class TestSystem:
    def test_paper_baseline_16mb(self):
        system = paper_baseline(llc_mb=16)
        assert system.llc.params.capacity_bytes == 16 * MB

    def test_scaled_system_shrinks_caches(self):
        system = paper_baseline(scale=0.125)
        assert system.llc.params.capacity_bytes < 8 * MB
        assert system.scale == 0.125

    def test_scale_out_of_range(self):
        with pytest.raises(ConfigError):
            SystemConfig().scaled(0.0)
        with pytest.raises(ConfigError):
            SystemConfig().scaled(1.5)

    def test_render_caches_scale(self):
        caches = RenderCachesConfig().scaled(1 / 64)
        assert caches.z.capacity_bytes < 32 * KB
        assert caches.texture_l3.capacity_bytes < 384 * KB

    def test_replace_dram(self):
        system = dataclasses.replace(SystemConfig(), dram=DDR3_1867)
        assert system.dram.name.startswith("DDR3-1867")
