"""Figure 1: LLC misses of NRU and Belady's OPT normalized to DRRIP.

Paper: NRU increases misses by 6.2% on average; Belady's OPT saves
36.6%, showing the headroom that motivates the study.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import (
    ExperimentConfig,
    app_table,
    normalized_misses,
    register,
)

POLICIES = ("nru", "belady")


@register(
    "fig01",
    "NRU and Belady's OPT misses normalized to DRRIP (8 MB, 16-way)",
    "NRU averages +6.2% misses vs DRRIP; Belady's optimal saves 36.6%.",
    sim_policies=("drrip",) + POLICIES,
)
def run(config: ExperimentConfig) -> List[Table]:
    table = app_table(
        "Figure 1: LLC misses normalized to two-bit DRRIP",
        ["NRU", "Belady-OPT"],
        config.frames(),
        lambda spec: normalized_misses(spec, POLICIES, config),
    )
    table.notes.append("values < 1.0 mean fewer LLC misses than DRRIP")
    return [table]
