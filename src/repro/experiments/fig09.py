"""Figure 9: Z-stream epoch death ratios under Belady's OPT.

Paper: E0 0.61, E1 0.38, E2 0.26 — unlike textures, only the youngest
Z blocks die often, so GSPC tracks a single collective Z probability.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.experiments.common import (
    ExperimentConfig,
    app_table,
    frame_characterization,
    register,
)
from repro.streams import StreamClass


@register(
    "fig09",
    "Z-stream epoch death ratios under OPT",
    "Z death ratios fall quickly with epoch (0.61 / 0.38 / 0.26): "
    "Z blocks that survive one reuse keep being reused.",
    char_policies=("belady",),
)
def run(config: ExperimentConfig) -> List[Table]:
    def death_ratios(spec):
        epochs = frame_characterization(spec, "belady", config)[StreamClass.Z]
        return [epochs.death_ratio(epoch) for epoch in range(3)]

    return [
        app_table(
            "Figure 9: Z epoch death ratios (Belady's OPT)",
            ["E0", "E1", "E2"],
            config.frames(),
            death_ratios,
        )
    ]
