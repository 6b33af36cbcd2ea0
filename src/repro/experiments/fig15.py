"""Figure 15: rendering performance on the 8 MB LLC.

Frames-per-second of NRU, GS-DRRIP and GSPC normalized to DRRIP (all
with uncached displayable color, per Section 5.2).  Paper: NRU -7%,
GS-DRRIP +0.8%, GSPC +8.0% on average; GSPC delivers 26.1 FPS.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.tables import Table
from repro.config import SystemConfig
from repro.experiments.common import (
    ExperimentConfig,
    app_table,
    frame_replay,
    frame_trace,
    register,
)
from repro.gpu.timing import FrameTimingSimulator

#: Per Section 5.2, the performance figures use the UCD variants.
POLICIES = ("nru+ucd", "gs-drrip+ucd", "gspc+ucd")
BASELINE = "drrip+ucd"


def performance_table(
    title: str,
    config: ExperimentConfig,
    system: SystemConfig,
    policies: Sequence[str] = POLICIES,
) -> Table:
    """Shared implementation for Figures 15-17.

    ``system`` varies the DRAM or GPU around ``config``'s LLC, whose
    replay records the figures share through :func:`frame_replay`.
    """
    simulator = FrameTimingSimulator(system)

    def speedups(spec):
        trace = frame_trace(spec, config)
        base = simulator.run(trace, frame_replay(spec, BASELINE, config))
        timings = [
            simulator.run(trace, frame_replay(spec, policy, config))
            for policy in policies
        ]
        return [timing.speedup_over(base) for timing in timings] + [
            timings[-1].fps_full_scale
        ]

    table = app_table(
        title,
        [p.upper() for p in policies] + ["FPS(best)"],
        config.frames(),
        speedups,
    )
    table.notes.append(
        f"speedups are relative to {BASELINE.upper()}; FPS column reports "
        f"{policies[-1].upper()} corrected to full frame resolution"
    )
    return table


@register(
    "fig15",
    "Performance on the 8 MB 16-way LLC (normalized to DRRIP)",
    "NRU loses ~7%; GS-DRRIP's miss savings barely convert (+0.8%); "
    "GSPC gains 8% on average.",
)
def run(config: ExperimentConfig) -> List[Table]:
    return [
        performance_table(
            "Figure 15: performance vs DRRIP (8 MB LLC)",
            config,
            config.system(),
        )
    ]
