"""Ablation study of GSPC's design choices.

Not a paper figure — this dissects *why* GSPC works by toggling one
ingredient at a time, all measured as misses normalized to DRRIP:

* the policy ladder itself (GS-DRRIP -> GSPZTC -> +TSE -> GSPC -> +UCD),
  isolating the contribution of each Section-3 refinement;
* the sampling ratio (how many dedicated SRRIP sets feed the counters);
* the counter width (8-bit FILL/HIT vs narrower);
* static texture insertion choices (the paper's "filling it with RRPV
  two hurts performance" claim for texture blocks).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Sequence, Tuple

from repro.analysis.tables import Table, mean
from repro.core.registry import policy_spec
from repro.experiments.common import (
    ExperimentConfig,
    frame_result,
    frame_trace,
    normalized_misses,
    register,
)
from repro.sim.offline import simulate_trace
from repro.workloads.apps import FrameSpec

LADDER = ("gs-drrip", "gspztc", "gspztc+tse", "gspc", "gspc+ucd")
#: Ablation B: the LLC sample-set periods tried (up to half the sets).
SAMPLE_PERIODS = (4, 8, 16, 32)
#: Ablation C: GSPZTC at each FILL/HIT counter width.
COUNTER_WIDTHS = {
    bits: policy_spec(f"gspztc(counter_bits={bits})").name for bits in (4, 6, 8)
}
#: Ablation D: protected textures inserted at RRPV 0 (the paper) or at
#: RRPV 2, the alternative Section 3 rejects.
TEX_INSERTION = (
    ("TEX at RRPV 0 (paper)", "gspztc"),
    ("TEX at RRPV 2", "gspztc(tex_rrpv=2)"),
)


@register(
    "ablation",
    "Ablation of GSPC's design ingredients",
    "Each Section-3 refinement contributes; sampled probabilities need "
    "enough sample sets; protected textures must enter at RRPV 0.",
    sim_policies=tuple(dict.fromkeys(
        ("drrip",)
        + LADDER
        + tuple(COUNTER_WIDTHS.values())
        + tuple(policy for _, policy in TEX_INSERTION)
    )),
)
def run(config: ExperimentConfig) -> List[Table]:
    frames = config.frames()
    llc = config.llc()

    ladder = Table(
        "Ablation A: the policy ladder (misses normalized to DRRIP)",
        ["Policy", "Normalized misses"],
    )
    for policy in LADDER:
        ladder.add_row(policy.upper(), _vs_drrip(policy, frames, config))

    sampling = Table(
        "Ablation B: sample-set period (GSPZTC misses vs DRRIP)",
        ["Sample period", "Sample sets", "Normalized misses"],
    )
    for period in SAMPLE_PERIODS:
        if period > llc.num_sets // 2:
            continue
        variant = dataclasses.replace(llc, sample_period=period)
        ratios = []
        for spec in frames:
            # DRRIP's leader sets do not depend on the sample period.
            baseline = frame_result(spec, "drrip", config)
            if variant == llc:  # the default period: Ablation A's GSPZTC
                result = frame_result(spec, "gspztc", config)
            else:
                result = simulate_trace(
                    frame_trace(spec, config), "gspztc", variant, engine=config.engine
                )
            ratios.append(result.misses_normalized_to(baseline))
        sampling.add_row(period, llc.num_sets // period, mean(ratios))

    counters = Table(
        "Ablation C: counter width (GSPZTC misses vs DRRIP)",
        ["FILL/HIT bits", "Normalized misses"],
    )
    for bits, policy in COUNTER_WIDTHS.items():
        counters.add_row(bits, _vs_drrip(policy, frames, config))

    tex_insert = Table(
        "Ablation D: protected-texture insertion RRPV (Section 3 claim)",
        ["Variant", "Normalized misses"],
    )
    for label, policy in TEX_INSERTION:
        tex_insert.add_row(label, _vs_drrip(policy, frames, config))

    render_caches = _render_cache_ablation(config)

    return [ladder, sampling, counters, tex_insert, render_caches]


def _vs_drrip(
    policy: str, frames: Sequence[FrameSpec], config: ExperimentConfig
) -> float:
    """Mean over ``frames`` of ``policy``'s misses normalized to DRRIP's."""
    return mean([normalized_misses(spec, [policy], config)[0] for spec in frames])


def _render_cache_ablation(config: ExperimentConfig) -> Table:
    """Replay identical command streams through render caches of
    different sizes: how much short-range reuse do they keep away from
    the LLC, and how does that change GSPC's edge?"""
    from repro.config import RenderCachesConfig, render_cache_factor
    from repro.workloads.apps import ALL_APPS
    from repro.workloads.replay import capture_frame_commands, replay_command_list

    table = Table(
        "Ablation E: render-cache capacity "
        "(same command streams, different filtering)",
        ["Render caches", "LLC accesses", "GSPC+UCD vs DRRIP"],
    )
    apps = ALL_APPS[:: max(1, len(ALL_APPS) // 4)]
    command_lists = [
        capture_frame_commands(app, 0, scale=config.scale) for app in apps
    ]
    llc = config.llc()
    engine = config.engine
    reference = render_cache_factor(config.scale)
    # At small scales every cache hits its size floor, so two factors
    # can give one configuration; each distinct one replays once.
    rows: Dict[RenderCachesConfig, Tuple[int, float]] = {}
    for label, factor in (
        ("quarter", reference / 4),
        ("baseline", reference),
        ("4x", min(1.0, reference * 4)),
    ):
        caches = RenderCachesConfig().scaled(factor)
        if caches not in rows:
            lengths = []
            ratios = []
            for command_list in command_lists:
                trace = replay_command_list(command_list, caches)
                lengths.append(len(trace))
                baseline = simulate_trace(trace, "drrip", llc, engine=engine)
                result = simulate_trace(trace, "gspc+ucd", llc, engine=engine)
                ratios.append(result.misses_normalized_to(baseline))
            rows[caches] = (int(mean(lengths)), mean(ratios))
        table.add_row(label, *rows[caches])
    return table
