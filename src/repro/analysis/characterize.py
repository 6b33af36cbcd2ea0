"""Frame characterization: the measurements behind Section 2.

``characterize_frame`` runs one frame under one policy with an epoch
observer attached and returns everything Figures 4-9 need: the stream
access mix, per-stream hit rates, inter- vs intra-stream texture hits,
render-target consumption, and the epoch populations of the texture and
Z streams.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

from repro.cache.stats import LLCStats
from repro.config import LLCConfig
from repro.sim.epochs import EpochStats, EpochTracker
from repro.sim.offline import PolicyLike, simulate_trace
from repro.sim.results import SimResult
from repro.streams import Stream, StreamClass
from repro.trace.record import Trace
from repro.trace.stats import TraceStats, compute_trace_stats


@dataclasses.dataclass
class FrameCharacterization:
    """All Section-2 measurements for one (frame, policy) pair."""

    policy: str
    trace_stats: TraceStats
    llc_stats: LLCStats
    tex_epochs: EpochStats
    z_epochs: EpochStats
    result: SimResult

    # -- conveniences used by the figure modules -------------------------

    @property
    def tex_hit_rate(self) -> float:
        return self.llc_stats.tex_hit_rate

    @property
    def rt_hit_rate(self) -> float:
        return self.llc_stats.rt_hit_rate

    @property
    def z_hit_rate(self) -> float:
        return self.llc_stats.z_hit_rate

    @property
    def rt_consumption_rate(self) -> float:
        return self.llc_stats.rt_consumption_rate

    @property
    def tex_inter_hits(self) -> int:
        return self.llc_stats.tex_inter_hits

    @property
    def tex_intra_hits(self) -> int:
        return self.llc_stats.tex_intra_hits

    def stream_mix(self) -> Dict[Stream, float]:
        return self.trace_stats.mix()


def characterize_frame(
    trace: Trace,
    policy: PolicyLike = "belady",
    llc_config: Optional[LLCConfig] = None,
    engine: str = "auto",
) -> FrameCharacterization:
    """Measure one frame under one policy with epoch tracking enabled.

    ``engine`` resolves as in :func:`~repro.sim.offline.simulate_trace`.
    """
    tracker = EpochTracker()
    result = simulate_trace(
        trace, policy, llc_config, observer=tracker, engine=engine
    )
    return FrameCharacterization(
        policy=result.policy,
        trace_stats=compute_trace_stats(trace),
        llc_stats=result.stats,
        tex_epochs=tracker.stats[StreamClass.TEX],
        z_epochs=tracker.stats[StreamClass.Z],
        result=result,
    )
