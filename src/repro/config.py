"""Configuration dataclasses and paper presets.

The baseline machine of Section 4 of the paper:

* GPU: 96 shader cores @ 1.6 GHz, 8 thread contexts per core (768 total),
  two 4-wide SIMD ALU pipes per core, 12 fixed-function texture samplers
  @ 1.6 GHz (4 texels/cycle each).
* Render caches: 1 KB 16-way vertex-index, 16 KB 128-way vertex, 12 KB
  24-way HiZ, 16 KB 16-way stencil, 24 KB 24-way render target, 32 KB
  32-way Z, and a three-level texture hierarchy whose L3 is 384 KB 48-way.
  The 1 KB vertex-index cache is folded into the vertex cache here:
  index fetches share the vertex cache and the VERTEX stream.
* LLC: non-inclusive/non-exclusive 8 MB, 16-way, 64 B blocks, 4 banks
  (2 MB/bank), 4 GHz, minimum 20-cycle load-to-use.
* DRAM: dual-channel DDR3-1600, 8 banks/channel, burst length 8,
  15-15-15 (tCAS-tRCD-tRP).

Because the reproduction renders synthetic frames in pure Python, a
*scale model* shrinks the frame resolution and with it every capacity
in the memory hierarchy: the LLC with the pixel count, the render
caches by :func:`render_cache_factor`.  Cache behaviour is governed by
the working-set : capacity ratio, which scaling preserves; the
experiment harness runs at ``scale=1/8`` by default and supports
``scale=1.0`` (paper scale) for full-size runs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.errors import ConfigError
from repro.utils.bitops import ilog2, is_power_of_two

KB = 1024
MB = 1024 * KB


@dataclasses.dataclass(frozen=True)
class CacheParams:
    """Geometry of one set-associative cache."""

    capacity_bytes: int
    ways: int
    block_bytes: int = 64

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.ways <= 0 or self.block_bytes <= 0:
            raise ConfigError(f"cache parameters must be positive: {self}")
        blocks = self.capacity_bytes // self.block_bytes
        if blocks * self.block_bytes != self.capacity_bytes:
            raise ConfigError(
                f"capacity {self.capacity_bytes} not a multiple of block "
                f"size {self.block_bytes}"
            )
        if blocks % self.ways != 0:
            raise ConfigError(
                f"{blocks} blocks not divisible by {self.ways} ways"
            )
        if not is_power_of_two(self.num_sets):
            raise ConfigError(
                f"number of sets must be a power of two, got {self.num_sets}"
            )
        ilog2(self.block_bytes)  # must also be a power of two

    @property
    def num_blocks(self) -> int:
        return self.capacity_bytes // self.block_bytes

    @property
    def num_sets(self) -> int:
        return self.num_blocks // self.ways

    def scaled(self, factor: float, min_sets: int = 2) -> "CacheParams":
        """Return a copy with capacity scaled by ``factor``.

        The way count and block size are preserved; the set count is
        rounded to the nearest power of two and clamped to ``min_sets``
        so that very small scales still yield a working cache.
        """
        if factor <= 0:
            raise ConfigError(f"scale factor must be positive, got {factor}")
        target_sets = self.num_sets * factor
        sets = max(min_sets, 2 ** max(1, round(math.log2(max(target_sets, 2)))))
        return CacheParams(
            capacity_bytes=sets * self.ways * self.block_bytes,
            ways=self.ways,
            block_bytes=self.block_bytes,
        )


@dataclasses.dataclass(frozen=True)
class LLCConfig:
    """Geometry and policy substrate of the shared last-level cache."""

    params: CacheParams = CacheParams(8 * MB, ways=16)
    banks: int = 4
    #: One sample set per ``sample_period`` sets ("sixteen sets in every
    #: 1024 LLC sets" => period 64).
    sample_period: int = 64
    rrpv_bits: int = 2

    def __post_init__(self) -> None:
        if not is_power_of_two(self.banks):
            raise ConfigError(f"bank count must be a power of two: {self.banks}")
        if self.params.num_sets % self.banks != 0:
            raise ConfigError(
                f"{self.params.num_sets} sets not divisible by {self.banks} banks"
            )
        if self.sample_period < 2:
            raise ConfigError("sample period must be >= 2")
        if not 1 <= self.rrpv_bits <= 8:
            raise ConfigError("rrpv_bits must be in [1, 8]")

    @property
    def num_sets(self) -> int:
        return self.params.num_sets

    @property
    def ways(self) -> int:
        return self.params.ways

    @property
    def block_bytes(self) -> int:
        return self.params.block_bytes

    @property
    def sets_per_bank(self) -> int:
        return self.params.num_sets // self.banks

    def scaled(self, factor: float) -> "LLCConfig":
        # Banks shrink with the square root of the capacity factor so the
        # per-bank counter groups keep enough sample sets to produce
        # meaningful statistics (the paper has 32 sample sets per bank).
        banks = self.banks
        while banks > 1 and banks * banks > self.banks * self.banks * factor:
            banks //= 2
        params = self.params.scaled(factor, min_sets=banks * 2)
        # Keep roughly eight sample sets per bank (the paper's ratio
        # would leave a scaled cache with only one or two samples, far
        # too noisy to learn probabilities from), while never dedicating
        # more than a quarter of the sets.
        period = min(self.sample_period, max(4, params.num_sets // banks // 8))
        return dataclasses.replace(
            self, params=params, banks=banks, sample_period=period
        )


@dataclasses.dataclass(frozen=True)
class RenderCachesConfig:
    """The small per-stream render caches in front of the LLC (Section 4)."""

    vertex: CacheParams = CacheParams(16 * KB, ways=128)
    hiz: CacheParams = CacheParams(12 * KB, ways=24)
    stencil: CacheParams = CacheParams(16 * KB, ways=16)
    render_target: CacheParams = CacheParams(24 * KB, ways=24)
    z: CacheParams = CacheParams(32 * KB, ways=32)
    #: Three-level texture hierarchy; the paper specifies only L3
    #: (384 KB 48-way).  L1/L2 sizes follow typical GPU designs.
    texture_l1: CacheParams = CacheParams(16 * KB, ways=8)
    texture_l2: CacheParams = CacheParams(128 * KB, ways=16)
    texture_l3: CacheParams = CacheParams(384 * KB, ways=48)

    def scaled(self, factor: float) -> "RenderCachesConfig":
        return RenderCachesConfig(
            **{
                field.name: getattr(self, field.name).scaled(factor)
                for field in dataclasses.fields(self)
            }
        )


def render_cache_factor(scale: float) -> float:
    """Capacity factor of the render caches for a frame ``scale``.

    Render caches shrink as ``scale**1.25`` rather than with the pixel
    count (``scale**2``, as the LLC does): real small caches cannot
    shrink proportionally (associativity and structure floors), and this
    keeps their *filtering power* — the fraction of short-range reuse
    absorbed before the LLC — at paper-like levels.
    """
    return scale**1.25


@dataclasses.dataclass(frozen=True)
class DRAMConfig:
    """DDR3 channel/bank/row-buffer timing model parameters.

    Latencies are in memory-controller cycles at ``bus_mhz``; a burst of
    ``burst_length`` transfers moves ``burst_length * bus_bytes`` bytes
    (one 64 B cache block for BL8 on a 64-bit bus).
    """

    name: str = "DDR3-1600 15-15-15"
    channels: int = 2
    banks_per_channel: int = 8
    bus_mhz: float = 800.0          # DDR => 1600 MT/s
    bus_bytes: int = 8              # 64-bit channel
    burst_length: int = 8
    tcas: int = 15
    trcd: int = 15
    trp: int = 15
    row_bytes: int = 8 * KB

    def __post_init__(self) -> None:
        # Channel, bank and row decode is bit slicing of the address.
        for field in ("channels", "banks_per_channel", "row_bytes"):
            value = getattr(self, field)
            if not is_power_of_two(value):
                raise ConfigError(
                    f"DRAM {field} must be a positive power of two, got {value}"
                )
        if min(self.tcas, self.trcd, self.trp) < 0:
            raise ConfigError("DRAM latencies must be non-negative")

    @property
    def transfer_cycles(self) -> int:
        """Data-bus cycles occupied by one burst (BL8 = 4 DDR bus cycles)."""
        return max(1, self.burst_length // 2)

    @property
    def peak_bandwidth_gbps(self) -> float:
        """Aggregate peak bandwidth in GB/s across all channels."""
        transfers_per_sec = self.bus_mhz * 1e6 * 2  # double data rate
        return self.channels * transfers_per_sec * self.bus_bytes / 1e9

    @property
    def cycle_ns(self) -> float:
        return 1e3 / self.bus_mhz

    def row_hit_ns(self) -> float:
        return (self.tcas + self.transfer_cycles) * self.cycle_ns

    def row_miss_ns(self) -> float:
        return (self.trp + self.trcd + self.tcas + self.transfer_cycles) * self.cycle_ns


#: The baseline DRAM of Section 4.
DDR3_1600 = DRAMConfig()

#: The faster DRAM of the Section 5.4 sensitivity study.
DDR3_1867 = DRAMConfig(
    name="DDR3-1867 10-10-10", bus_mhz=933.5, tcas=10, trcd=10, trp=10
)


@dataclasses.dataclass(frozen=True)
class GPUConfig:
    """Compute-side parameters of the simulated GPU."""

    name: str = "baseline-96c"
    shader_cores: int = 96
    threads_per_core: int = 8
    core_clock_ghz: float = 1.6
    #: Two 4-wide single-precision SIMD pipes per core (with MAC) =>
    #: 16 FLOPs/cycle/core => ~2.5 TFLOPS aggregate at 1.6 GHz.
    flops_per_core_cycle: int = 16
    texture_samplers: int = 12
    sampler_clock_ghz: float = 1.6
    texels_per_sampler_cycle: int = 4
    llc_clock_ghz: float = 4.0
    llc_latency_cycles: int = 20

    def __post_init__(self) -> None:
        if self.shader_cores <= 0 or self.threads_per_core <= 0:
            raise ConfigError("GPU must have positive core/thread counts")

    @property
    def thread_contexts(self) -> int:
        return self.shader_cores * self.threads_per_core

    @property
    def peak_tflops(self) -> float:
        return (
            self.shader_cores * self.flops_per_core_cycle * self.core_clock_ghz
        ) / 1e3

    @property
    def peak_texel_rate_gtexels(self) -> float:
        return (
            self.texture_samplers
            * self.texels_per_sampler_cycle
            * self.sampler_clock_ghz
        )

    @property
    def llc_latency_ns(self) -> float:
        return self.llc_latency_cycles / self.llc_clock_ghz


#: Baseline GPU of Section 4 (2.5 TFLOPS class).
GPU_BASELINE = GPUConfig()

#: The "less aggressive" GPU of Section 5.4: 64 cores (512 thread
#: contexts) and 8 texture samplers; everything else unchanged.
GPU_SMALL = GPUConfig(name="small-64c", shader_cores=64, texture_samplers=8)


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """The simulated system behind the render caches: GPU + LLC + DRAM.

    The render caches belong to trace synthesis, which sizes them from
    the frame scale (:func:`render_cache_factor`).
    """

    llc: LLCConfig = LLCConfig()
    gpu: GPUConfig = GPU_BASELINE
    dram: DRAMConfig = DDR3_1600
    #: Linear frame-scale factor relative to the paper's resolutions.
    scale: float = 1.0

    def scaled(self, scale: float) -> "SystemConfig":
        """Derive a resolution-scaled system.

        The LLC capacity scales with pixel count (``scale**2``); timing
        parameters are left untouched, since latency and bandwidth per
        block are resolution-independent.
        """
        if scale <= 0 or scale > 1:
            raise ConfigError(f"scale must be in (0, 1], got {scale}")
        return dataclasses.replace(
            self, llc=self.llc.scaled(scale * scale), scale=self.scale * scale
        )


def paper_baseline(
    llc_mb: int = 8,
    scale: float = 1.0,
    gpu: Optional[GPUConfig] = None,
    dram: Optional[DRAMConfig] = None,
) -> SystemConfig:
    """The Section-4 baseline system, optionally resized and scaled.

    ``llc_mb`` selects the LLC capacity (8 MB baseline, 16 MB for the
    Figure 16 study); ``scale`` shrinks the whole memory system for fast
    simulation (see module docstring).
    """
    llc = LLCConfig(params=CacheParams(llc_mb * MB, ways=16))
    system = SystemConfig(
        llc=llc,
        gpu=gpu or GPU_BASELINE,
        dram=dram or DDR3_1600,
    )
    if scale != 1.0:
        system = system.scaled(scale)
    return system


#: Default scale used by tests and the reduced-scale benchmark harness.
DEFAULT_SCALE = 0.125
