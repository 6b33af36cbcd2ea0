"""Figure 5: per-stream hit rates under OPT, DRRIP, and NRU.

Paper averages: texture 53.4 / 22.0 / 18.4 %, render target
59.8 / 50.1 / 41.5 %, Z 77.1 / ~58 / ~58 % for OPT / DRRIP / NRU.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import ExperimentConfig, app_table, frame_result, register

POLICIES = ("belady", "drrip", "nru")
PANELS = (
    ("tex_hit_rate", "texture sampler"),
    ("rt_hit_rate", "render target"),
    ("z_hit_rate", "Z"),
)


@register(
    "fig05",
    "Texture / render-target / Z hit rates for OPT, DRRIP, NRU",
    "OPT's texture hit rate dwarfs DRRIP/NRU; the RT gap is small; the "
    "Z gap is moderate.",
    sim_policies=POLICIES,
)
def run(config: ExperimentConfig) -> List[Table]:
    def hit_rates(attribute):
        return lambda spec: [
            100.0 * getattr(frame_result(spec, policy, config).stats, attribute)
            for policy in POLICIES
        ]

    return [
        app_table(
            f"Figure 5 ({label} hit rate, %)",
            [policy.upper() for policy in POLICIES],
            config.frames(),
            hit_rates(attribute),
        )
        for attribute, label in PANELS
    ]
