"""Figure 4: stream-wise distribution of LLC accesses.

Paper: render target ~40% and texture sampler ~34% dominate; Z is the
only other stream above 10%; HiZ ~7%, vertex ~4%, the rest ~2%.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, app_table, frame_trace, register
from repro.streams import ALL_STREAMS
from repro.trace.stats import compute_trace_stats


@register(
    "fig04",
    "Stream-wise distribution of LLC accesses",
    "RT ~40%, TEX ~34%, Z >=10%, HiZ ~7%, VTX ~4%, rest ~2%.",
)
def run(config: ExperimentConfig) -> List[Table]:
    def mix(spec):
        stats = compute_trace_stats(frame_trace(spec, config))
        return [100.0 * stats.stream_fraction(stream) for stream in ALL_STREAMS]

    return [
        app_table(
            "Figure 4: LLC access mix (%)",
            [stream.short_name for stream in ALL_STREAMS],
            config.frames(),
            mix,
        )
    ]
