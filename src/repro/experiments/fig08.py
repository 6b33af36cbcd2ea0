"""Figure 8: render-target and texture fills at the distant RRPV in DRRIP.

Paper: two-bit DRRIP fills ~36% of texture blocks and ~25% of render
target blocks with RRPV = 3 — the texture percentage "needs to be much
higher", the render-target one hurts inter-stream reuse.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, app_table, frame_result, register
from repro.streams import StreamClass


@register(
    "fig08",
    "Percentage of RT and TEX fills with RRPV=3 under two-bit DRRIP",
    "DRRIP inserts ~36% of texture and ~25% of render-target fills at "
    "the distant RRPV.",
    sim_policies=("drrip",),
)
def run(config: ExperimentConfig) -> List[Table]:
    def distant_fills(spec):
        fractions = frame_result(spec, "drrip", config).extras["fill_distant_fraction"]
        return [
            100.0 * fractions[StreamClass.RT.name],
            100.0 * fractions[StreamClass.TEX.name],
        ]

    return [
        app_table(
            "Figure 8: fills at RRPV=3 in two-bit DRRIP (%)",
            ["RT fills", "TEX fills"],
            config.frames(),
            distant_fills,
        )
    ]
