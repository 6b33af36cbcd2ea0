"""Cross-validation of the two GPU timing models.

The windowed throughput model (:mod:`repro.gpu.timing`) and the
event-driven queueing model (:mod:`repro.gpu.detailed`) make different
simplifications; the reproduction's performance claims (Figures 15-17)
should not depend on which one is used.  This experiment reports both
models' speedups for the key policies side by side.
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table, mean
from repro.experiments.common import (
    ExperimentConfig,
    frame_replay,
    frame_trace,
    register,
)
from repro.gpu.detailed import DetailedGPUSimulator
from repro.gpu.timing import FrameTimingSimulator

POLICIES = ("nru+ucd", "gspc+ucd", "belady+ucd")
BASELINE = "drrip+ucd"


@register(
    "timing",
    "Windowed vs event-driven timing model cross-validation",
    "Both timing models must agree on the direction of every speedup.",
)
def run(config: ExperimentConfig) -> List[Table]:
    system = config.system()
    windowed = FrameTimingSimulator(system)
    detailed = DetailedGPUSimulator(system)
    table = Table(
        "Timing-model cross-validation: speedup over DRRIP+UCD",
        ["Policy", "Windowed model", "Detailed model", "FPS (win)", "FPS (det)"],
    )
    frames = config.frames()
    per_policy = {
        policy: {"w": [], "d": [], "wf": [], "df": []} for policy in POLICIES
    }
    for spec in frames:
        trace = frame_trace(spec, config)
        record = frame_replay(spec, BASELINE, config)
        base_w = windowed.run(trace, BASELINE, record=record)
        base_d = detailed.run(trace, BASELINE, record=record)
        for policy in POLICIES:
            record = frame_replay(spec, policy, config)
            timing_w = windowed.run(trace, policy, record=record)
            timing_d = detailed.run(trace, policy, record=record)
            bucket = per_policy[policy]
            bucket["w"].append(timing_w.speedup_over(base_w))
            bucket["d"].append(timing_d.speedup_over(base_d))
            bucket["wf"].append(timing_w.fps_full_scale)
            bucket["df"].append(timing_d.fps_full_scale)
    for policy in POLICIES:
        bucket = per_policy[policy]
        table.add_row(
            policy.upper(),
            mean(bucket["w"]),
            mean(bucket["d"]),
            mean(bucket["wf"]),
            mean(bucket["df"]),
        )
    table.notes.append(
        "speedups > 1.0 mean faster than the DRRIP+UCD baseline"
    )
    return [table]
