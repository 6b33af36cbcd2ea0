"""Figure 12: LLC misses of all evaluated policies normalized to DRRIP.

The paper's central miss-count comparison: NRU +6.2%, SHiP-mem ~0,
GS-DRRIP -2.9%, GSPZTC -4.8%, GSPZTC+TSE -11.5%, GSPC -11.7%,
GSPC+UCD -13.1%, DRRIP+UCD ~0 on average across 52 frames.
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

POLICIES = (
    "nru",
    "ship-mem",
    "gs-drrip",
    "gspztc",
    "gspztc+tse",
    "gspc",
    "gspc+ucd",
    "drrip+ucd",
)


@register(
    "fig12",
    "LLC misses of all policies normalized to two-bit DRRIP",
    "GSPC+UCD saves the most misses; each GSPC refinement helps; NRU "
    "hurts; SHiP-mem and DRRIP+UCD are ~neutral.",
    sim_policies=("drrip",) + POLICIES,
)
def run(config: ExperimentConfig) -> List[Table]:
    table = app_table(
        "Figure 12: LLC misses normalized to DRRIP",
        [p.upper() for p in POLICIES],
        config.frames(),
        lambda spec: normalized_misses(spec, POLICIES, config),
    )
    table.notes.append("values < 1.0 mean fewer LLC misses than DRRIP")
    return [table]
