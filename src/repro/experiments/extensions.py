"""Extension experiments beyond the paper's evaluation.

* **Texture bypass** — GSPC already inserts probably-dead textures at
  the distant RRPV; the bypass extension refuses to install them at
  all (legal in a non-inclusive LLC).  How much further does that go?
* **Multi-frame sequences** — the paper evaluates discrete frames;
  across consecutive frames of an animation, persistent resources give
  every policy more far reuse to protect.  Does the policy ordering
  survive?
"""

from __future__ import annotations

from typing import List

from repro.analysis.tables import Table, mean
from repro.experiments.common import (
    ExperimentConfig,
    app_table,
    normalized_misses,
    register,
)
from repro.sim.offline import simulate_trace
from repro.workloads.apps import ALL_APPS, FrameSpec
from repro.workloads.sequence import generate_sequence_trace

SEQ_POLICIES = ("nru", "gspztc+tse", "gspc+ucd", "belady")


@register(
    "extensions",
    "Beyond the paper: texture bypass and multi-frame sequences",
    "Extensions enabled by this library; not results from the paper.",
    sim_policies=(
        "drrip", "gspc", "gspc+bypass", "gspc+ucd", "gspc+bypass+ucd"
    ),
)
def run(config: ExperimentConfig) -> List[Table]:
    frames = config.frames()

    bypass = Table(
        "Extension A: dead-texture bypass (misses normalized to DRRIP)",
        ["Policy", "Normalized misses"],
    )
    for policy in ("gspc", "gspc+bypass", "gspc+ucd", "gspc+bypass+ucd"):
        ratios = [normalized_misses(spec, [policy], config)[0] for spec in frames]
        bypass.add_row(policy.upper(), mean(ratios))

    llc = config.llc()

    def sequence_ratios(spec):
        trace = generate_sequence_trace(spec.app, num_frames=2, scale=config.scale)
        baseline = simulate_trace(trace, "drrip", llc, engine=config.engine)
        return [
            simulate_trace(
                trace, policy, llc, engine=config.engine
            ).misses_normalized_to(baseline)
            for policy in SEQ_POLICIES
        ]

    sequences = app_table(
        "Extension B: two-frame animation sequences "
        "(misses normalized to DRRIP)",
        [p.upper() for p in SEQ_POLICIES],
        # Each sampled app's sequence starts at its frame 0.
        [FrameSpec(app, 0) for app in ALL_APPS[:: max(1, len(ALL_APPS) // 6)]],
        sequence_ratios,
    )
    return [bypass, sequences]
