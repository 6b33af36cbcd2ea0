"""Figure 6: inter- vs intra-stream texture reuse.

Upper panel: texture hits split into inter-stream (render-target
consumption) and intra-stream, normalized to OPT's texture hits.
Lower panel: percentage of render-target blocks consumed by the
samplers through LLC hits (paper: OPT 51%, DRRIP 16%, NRU 13% average;
Assassin's Creed up to 90% potential).
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, app_table, frame_result, register

POLICIES = ("belady", "drrip", "nru")


@register(
    "fig06",
    "Inter- vs intra-stream texture hits; RT-to-TEX consumption",
    "~55% of OPT's texture hits are inter-stream; OPT consumes ~51% of "
    "render targets, DRRIP 16%, NRU 13%.",
    sim_policies=POLICIES,
)
def run(config: ExperimentConfig) -> List[Table]:
    frames = config.frames()

    def reuse_split(spec):
        opt = frame_result(spec, "belady", config).stats
        opt_hits = max(1, opt.tex_inter_hits + opt.tex_intra_hits)
        cells = []
        for policy in POLICIES:
            stats = frame_result(spec, policy, config).stats
            cells += [stats.tex_inter_hits / opt_hits, stats.tex_intra_hits / opt_hits]
        return cells

    upper = app_table(
        "Figure 6 upper: texture hits by reuse type "
        "(fraction of OPT's texture hits)",
        [f"{p.upper()}-{kind}" for p in POLICIES for kind in ("inter", "intra")],
        frames,
        reuse_split,
    )
    lower = app_table(
        "Figure 6 lower: render targets consumed as texture (%)",
        [p.upper() for p in POLICIES],
        frames,
        lambda spec: [
            100.0 * frame_result(spec, policy, config).stats.rt_consumption_rate
            for policy in POLICIES
        ],
    )
    return [upper, lower]
