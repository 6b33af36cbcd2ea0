"""Figure 14: iso-overhead comparison at four replacement-state bits.

GSPC needs four state bits per block (two RRPV + two stream-state), so
the paper compares it against LRU, four-bit DRRIP and four-bit GS-DRRIP
(paper: LRU +7.2%, DRRIP4 -0.4%, GS-DRRIP4 -1.7%, GSPC -11.8% misses
vs two-bit DRRIP).
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

POLICIES = ("lru", "drrip4", "gs-drrip4", "gspc+ucd")


@register(
    "fig14",
    "Iso-overhead policies (4 replacement-state bits) vs two-bit DRRIP",
    "At equal state cost, GSPC far outperforms LRU and the four-bit "
    "RRIP variants.",
    sim_policies=("drrip",) + POLICIES,
)
def run(config: ExperimentConfig) -> List[Table]:
    return [
        app_table(
            "Figure 14: LLC misses normalized to two-bit DRRIP "
            "(iso-overhead: 4 state bits/block)",
            [p.upper() for p in POLICIES],
            config.frames(),
            lambda spec: normalized_misses(spec, POLICIES, config),
        )
    ]
