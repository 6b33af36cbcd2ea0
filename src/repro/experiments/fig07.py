"""Figure 7: texture epochs under Belady's OPT.

Upper panel: distribution of intra-stream texture hits over epochs
(paper: E0 79%, E1 15%, E2 4%, E>=3 2%).  Lower panel: death ratio of
each epoch (paper: E0 0.81, E1 0.73, E2 0.53).
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

EPOCH_LABELS = ("E0", "E1", "E2", "E>=3")


@register(
    "fig07",
    "Texture epochs under OPT: hit distribution and death ratios",
    "Most intra-stream texture hits come from E0, yet E0/E1 death "
    "ratios are high (0.81/0.73) and only E2 is ~half alive.",
    char_policies=("belady",),
)
def run(config: ExperimentConfig) -> List[Table]:
    frames = config.frames()

    def epochs(spec):
        return frame_characterization(spec, "belady", config)[StreamClass.TEX]

    upper = app_table(
        "Figure 7 upper: intra-stream texture hits by epoch (%)",
        EPOCH_LABELS,
        frames,
        lambda spec: [100.0 * share for share in epochs(spec).hit_distribution()],
    )
    lower = app_table(
        "Figure 7 lower: texture epoch death ratios",
        ["E0", "E1", "E2"],
        frames,
        lambda spec: [epochs(spec).death_ratio(epoch) for epoch in range(3)],
    )
    return [upper, lower]
