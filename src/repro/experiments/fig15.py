"""Figure 15: rendering performance on the 8 MB LLC.

Frames-per-second of NRU, GS-DRRIP and GSPC normalized to DRRIP (all
with uncached displayable color, per Section 5.2).  Paper: NRU -7%,
GS-DRRIP +0.8%, GSPC +8.0% on average; GSPC delivers 26.1 FPS.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.analysis.tables import Table, mean
from repro.config import SystemConfig
from repro.experiments.common import (
    ExperimentConfig,
    frame_replay,
    frame_trace,
    group_frames_by_app,
    register,
)
from repro.gpu.timing import FrameTiming, FrameTimingSimulator

#: Per Section 5.2, the performance figures use the UCD variants.
POLICIES = ("nru+ucd", "gs-drrip+ucd", "gspc+ucd")
BASELINE = "drrip+ucd"


def performance_table(
    title: str,
    config: ExperimentConfig,
    system: SystemConfig,
    policies: Sequence[str] = POLICIES,
    baseline: str = BASELINE,
) -> Table:
    """Shared implementation for Figures 15-17.

    ``system`` varies the DRAM or GPU around ``config``'s LLC, whose
    replay records the figures share through :func:`frame_replay`.
    """
    simulator = FrameTimingSimulator(system)
    table = Table(
        title, ["Application"] + [p.upper() for p in policies] + ["FPS(best)"]
    )
    totals: Dict[str, List[float]] = {policy: [] for policy in policies}
    best_fps: List[float] = []
    for app, frames in group_frames_by_app(config.frames()).items():
        per_policy: Dict[str, List[float]] = {policy: [] for policy in policies}
        fps_app: List[float] = []
        for spec in frames:
            trace = frame_trace(spec, config)
            base = simulator.run(
                trace, baseline, record=frame_replay(spec, baseline, config)
            )
            timings: Dict[str, FrameTiming] = {
                policy: simulator.run(
                    trace, policy, record=frame_replay(spec, policy, config)
                )
                for policy in policies
            }
            for policy in policies:
                per_policy[policy].append(timings[policy].speedup_over(base))
            fps_app.append(timings[policies[-1]].fps_full_scale)
        table.add_row(
            app,
            *[mean(per_policy[policy]) for policy in policies],
            mean(fps_app),
        )
        for policy in policies:
            totals[policy].extend(per_policy[policy])
        best_fps.extend(fps_app)
    table.add_row(
        "Average", *[mean(totals[policy]) for policy in policies], mean(best_fps)
    )
    table.notes.append(
        f"speedups are relative to {baseline.upper()}; FPS column reports "
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
