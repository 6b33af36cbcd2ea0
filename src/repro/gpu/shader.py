"""Shader-core compute and latency-hiding model.

The GPUs of the paper hide most memory latency behind fast thread
switching (Section 5.3: "it is necessary to save a significantly large
volume of LLC misses to achieve reasonable performance improvements").
We model that with two terms:

* a *throughput* term — shading/sampling work proportional to the
  pipeline activity implied by each stream's accesses, divided by the
  aggregate shader/sampler throughput; and
* an *exposed-latency* term — each LLC miss contributes its DRAM latency
  divided by the number of thread contexts available to overlap it, so a
  GPU with fewer contexts (the Section 5.4 study) exposes more latency.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.streams import Stream

#: Shader + fixed-function work (in single-precision FLOP equivalents)
#: implied by one LLC-level access of each stream.  One 64 B texture
#: block feeds 16 texels of filtering; one RT block covers 16 pixels of
#: shading; Z/HiZ/stencil blocks imply cheap fixed-function tests.
#: Vertex blocks imply transform work.  Calibrated so that the baseline
#: GPU is moderately memory-bound, as the paper's speedup-vs-miss-savings
#: ratio implies.
WORK_FLOPS_PER_ACCESS = {
    int(Stream.VERTEX): 4800.0,
    int(Stream.HIZ): 600.0,
    int(Stream.Z): 300.0,
    int(Stream.STENCIL): 150.0,
    int(Stream.RT): 2800.0,
    int(Stream.TEXTURE): 4000.0,
    int(Stream.DISPLAY): 400.0,
    int(Stream.OTHER): 400.0,
}
#: Achievable fraction of peak on real shader mixes.
SHADER_EFFICIENCY = 0.55


class ShaderModel:
    """Converts per-window access counts into compute time."""

    def __init__(self, gpu: GPUConfig) -> None:
        self.gpu = gpu
        #: Aggregate FLOPs per nanosecond.
        self.flops_per_ns = gpu.peak_tflops * 1e3

    def compute_ns(self, stream_counts) -> float:
        """Shading time of one window given per-stream access counts."""
        flops = 0.0
        for stream, count in stream_counts.items():
            flops += WORK_FLOPS_PER_ACCESS[int(stream)] * count
        return flops / (self.flops_per_ns * SHADER_EFFICIENCY)

    def exposed_latency_ns(self, misses: int, miss_latency_ns: float) -> float:
        """Latency not hidden by multithreading.

        With ``T`` thread contexts, up to ``T`` misses overlap; the
        exposed component per miss is therefore ``latency / T`` in the
        aggregate (an Amdahl-style approximation of round-robin
        latency hiding).
        """
        if misses <= 0:
            return 0.0
        return misses * miss_latency_ns / self.gpu.thread_contexts
