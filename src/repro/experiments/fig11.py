"""Figure 11: GSPZTC sensitivity to the threshold parameter t.

Paper: with t in {2, 4, 8, 16} the average miss count barely moves, but
a few applications suffer with t = 2 or 4; t = 8 is the most robust
and is the default throughout the paper (and this library).
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table
from repro.core.registry import policy_spec
from repro.experiments.common import ExperimentConfig, app_table, frame_result, register

T_VALUES = (2, 4, 8, 16)
REFERENCE_T = 16
#: The registry name of GSPZTC at each t, spelled as resolved.
POLICIES = {t: policy_spec(f"gspztc(t={t})").name for t in T_VALUES}


@register(
    "fig11",
    "GSPZTC miss-count sensitivity to t (relative to t=16)",
    "All four power-of-two t values are close on average; t=8 is the "
    "most robust across applications.",
    sim_policies=tuple(POLICIES.values()),
)
def run(config: ExperimentConfig) -> List[Table]:
    def percent_change(spec):
        misses = {
            t: frame_result(spec, policy, config).misses
            for t, policy in POLICIES.items()
        }
        reference = max(1, misses[REFERENCE_T])
        return [100.0 * (misses[t] - reference) / reference for t in T_VALUES]

    table = app_table(
        "Figure 11: percent change in LLC misses vs t=16 (GSPZTC)",
        [f"t={t}" for t in T_VALUES],
        config.frames(),
        percent_change,
    )
    table.notes.append("positive = more misses than t=16")
    return [table]
