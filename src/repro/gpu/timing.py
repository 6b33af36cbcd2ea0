"""Frame-time simulation: LLC trace -> frames per second.

The simulator takes one LLC replay record of a frame's access trace
(any replacement policy, on either engine — :func:`repro.sim.offline.replay`)
and integrates time window by window over it.
Within a window, shading/fixed-function compute, LLC bank occupancy and
DRAM service largely overlap — a GPU is a throughput machine — so the
window's duration is their maximum plus the latency that the thread
contexts could not hide.  This reproduces the paper's observed
convexity: small LLC miss savings vanish inside the overlap (GS-DRRIP's
2.9% fewer misses bought only 0.8% speedup), while large savings shift
whole windows off the DRAM bound (GSPC's 13% bought 8%).
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, Optional

import numpy as np

from repro.cache.llc import HIT, MISS
from repro.config import SystemConfig
from repro.gpu.dram import account_windows, average_latency_ns
from repro.gpu.llc_timing import LLCTimingModel
from repro.gpu.shader import ShaderModel
from repro.obs.spans import SpanRecorder
from repro.sim.offline import PolicyLike, check_record, replay
from repro.sim.results import Replay
from repro.streams import Stream
from repro.trace.record import Trace

#: Accesses integrated per timing window.
WINDOW_ACCESSES = 4096


@dataclasses.dataclass
class FrameTiming:
    """Timing outcome of one rendered frame."""

    policy: str
    frame_ns: float
    compute_ns: float
    dram_ns: float
    llc_ns: float
    exposed_ns: float
    accesses: int
    misses: int
    dram_row_hit_rate: float
    #: Linear frame scale the trace was generated at (for FPS correction).
    scale: float = 1.0
    #: Wall-clock spent preparing the LLC replay (array conversion,
    #: next-use precompute) vs. replaying it and integrating the windows
    #: — mirrors :class:`~repro.sim.results.SimResult`.
    setup_seconds: float = 0.0
    replay_seconds: float = 0.0

    @property
    def elapsed_seconds(self) -> float:
        return self.setup_seconds + self.replay_seconds

    def to_dict(self) -> Dict[str, float]:
        """Manifest-ready summary of the modeled frame."""
        return {
            "policy": self.policy,
            "frame_ns": self.frame_ns,
            "compute_ns": self.compute_ns,
            "dram_ns": self.dram_ns,
            "llc_ns": self.llc_ns,
            "exposed_ns": self.exposed_ns,
            "accesses": self.accesses,
            "misses": self.misses,
            "dram_row_hit_rate": self.dram_row_hit_rate,
            "scale": self.scale,
            "fps": self.fps,
            "fps_full_scale": self.fps_full_scale,
        }

    @property
    def fps(self) -> float:
        """Frames per second at the trace's own (possibly reduced) scale."""
        return 1e9 / self.frame_ns if self.frame_ns > 0 else 0.0

    @property
    def fps_full_scale(self) -> float:
        """FPS corrected to the paper's full frame resolution.

        A trace generated at linear scale ``s`` has ``s**2`` of the
        full frame's work, so the full-scale frame would take about
        ``frame_ns / s**2``.
        """
        if self.frame_ns <= 0:
            return 0.0
        return 1e9 / (self.frame_ns / (self.scale * self.scale))

    def speedup_over(self, baseline: "FrameTiming") -> float:
        return baseline.frame_ns / self.frame_ns


class FrameTimingSimulator:
    """Reusable timing simulator for one system configuration."""

    def __init__(self, system: SystemConfig) -> None:
        self.system = system

    def run(
        self, trace: Trace, record: Replay, spans: Optional[SpanRecorder] = None
    ) -> FrameTiming:
        """Model one frame from ``record``, ``trace``'s replay on this
        system's LLC (:func:`~repro.sim.offline.replay`).

        Integrating the windows over the record adds a ``timing`` span.
        """
        system = self.system
        if spans is None:
            spans = SpanRecorder()
        check_record(record, trace)
        shader = ShaderModel(system.gpu)
        llc_timing = LLCTimingModel(system.llc, system.gpu)

        total_ns = 0.0
        compute_total = 0.0
        dram_total = 0.0
        llc_total = 0.0
        exposed_total = 0.0
        timing_started = time.perf_counter()
        with spans.span("timing"):
            outcomes = record.outcomes
            count = -(-len(trace) // WINDOW_ACCESSES)
            windows = np.arange(len(trace)) // WINDOW_ACCESSES
            # DRAM sees only misses and bypasses, in trace order, each
            # dirty victim written back at its true address just before
            # the miss that evicted it fetches.
            requested = np.flatnonzero(outcomes != HIT)
            positions = np.concatenate(
                [2 * record.victim_indices, 2 * requested + 1]
            )
            order = np.argsort(positions)
            dram = account_windows(
                system.dram,
                np.concatenate(
                    [record.victim_addresses, trace.addresses[requested]]
                )[order],
                windows[positions[order] // 2],
                count,
            )
            stream_counts = np.bincount(
                windows * len(Stream) + trace.streams,
                minlength=count * len(Stream),
            ).reshape(count, len(Stream))
            misses = np.bincount(windows[outcomes == MISS], minlength=count)
            lookups = np.bincount(windows, minlength=count)
            row_hit_rates = dram.row_hit_rates().tolist()
            for counts, window_misses, window_lookups, dram_ns, hit_rate in zip(
                stream_counts.tolist(),
                misses.tolist(),
                lookups.tolist(),
                dram.service_ns.tolist(),
                row_hit_rates,
            ):
                compute_ns = shader.compute_ns(dict(enumerate(counts)))
                llc_ns = llc_timing.occupancy_ns(window_lookups)
                miss_latency = (
                    average_latency_ns(system.dram, hit_rate)
                    + llc_timing.hit_latency_ns
                )
                exposed_ns = shader.exposed_latency_ns(window_misses, miss_latency)
                total_ns += max(compute_ns, dram_ns, llc_ns) + exposed_ns
                compute_total += compute_ns
                dram_total += dram_ns
                llc_total += llc_ns
                exposed_total += exposed_ns
        timing_seconds = time.perf_counter() - timing_started

        result = record.result
        return FrameTiming(
            policy=result.policy,
            frame_ns=total_ns,
            compute_ns=compute_total,
            dram_ns=dram_total,
            llc_ns=llc_total,
            exposed_ns=exposed_total,
            accesses=len(trace),
            misses=result.misses,
            dram_row_hit_rate=row_hit_rates[-1] if count else 0.0,
            scale=float(trace.meta.get("scale", system.scale or 1.0)),
            setup_seconds=result.setup_seconds,
            replay_seconds=result.replay_seconds + timing_seconds,
        )


def simulate_frame_timing(
    trace: Trace,
    policy: PolicyLike,
    system: Optional[SystemConfig] = None,
) -> FrameTiming:
    """Replay ``trace`` under ``policy`` on ``system``'s LLC, then model
    the frame with :class:`FrameTimingSimulator`."""
    system = system or SystemConfig()
    return FrameTimingSimulator(system).run(
        trace, replay(trace, policy, system.llc)
    )

