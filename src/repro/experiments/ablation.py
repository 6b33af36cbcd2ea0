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
from typing import List

from repro.analysis.tables import Table, mean
from repro.core.gspztc import GSPZTCPolicy
from repro.experiments.common import (
    ExperimentConfig,
    frame_result,
    frame_trace,
    register,
)
from repro.sim.offline import simulate_trace

LADDER = ("gs-drrip", "gspztc", "gspztc+tse", "gspc", "gspc+ucd")


class _TexRRPV2GSPZTC(GSPZTCPolicy):
    """GSPZTC variant inserting protected textures at RRPV 2 instead of
    0 — the alternative the paper explicitly rejects in Section 3."""

    name = "gspztc-tex2"

    def on_fill(self, ctx, way):
        super().on_fill(ctx, way)
        if not ctx.is_sample and ctx.sclass == 1:  # TEX
            slot = ctx.set_index * self.geometry.ways + way
            if self.rrpv[slot] == 0:
                self.rrpv[slot] = self.long_rrpv


@register(
    "ablation",
    "Ablation of GSPC's design ingredients",
    "Each Section-3 refinement contributes; sampled probabilities need "
    "enough sample sets; protected textures must enter at RRPV 0.",
    sim_policies=("drrip",) + LADDER,
)
def run(config: ExperimentConfig) -> List[Table]:
    frames = config.frames()
    llc = config.llc()

    ladder = Table(
        "Ablation A: the policy ladder (misses normalized to DRRIP)",
        ["Policy", "Normalized misses"],
    )
    for policy in LADDER:
        ratios = []
        for spec in frames:
            baseline = frame_result(spec, "drrip", config)
            ratios.append(
                frame_result(spec, policy, config).misses_normalized_to(baseline)
            )
        ladder.add_row(policy.upper(), mean(ratios))

    sampling = Table(
        "Ablation B: sample-set period (GSPZTC misses vs DRRIP)",
        ["Sample period", "Sample sets", "Normalized misses"],
    )
    for period in (4, 8, 16, 32):
        if period > llc.num_sets // 2:
            continue
        variant = dataclasses.replace(llc, sample_period=period)
        ratios = []
        for spec in frames:
            trace = frame_trace(spec, config)
            baseline = simulate_trace(trace, "drrip", variant)
            result = simulate_trace(trace, "gspztc", variant)
            ratios.append(result.misses_normalized_to(baseline))
        sampling.add_row(period, llc.num_sets // period, mean(ratios))

    counters = Table(
        "Ablation C: counter width (GSPZTC misses vs DRRIP)",
        ["FILL/HIT bits", "Normalized misses"],
    )
    for bits in (4, 6, 8):
        ratios = []
        for spec in frames:
            baseline = frame_result(spec, "drrip", config)
            result = simulate_trace(
                frame_trace(spec, config), GSPZTCPolicy(counter_bits=bits), llc
            )
            ratios.append(result.misses_normalized_to(baseline))
        counters.add_row(bits, mean(ratios))

    tex_insert = Table(
        "Ablation D: protected-texture insertion RRPV (Section 3 claim)",
        ["Variant", "Normalized misses"],
    )
    for label, policy in (
        ("TEX at RRPV 0 (paper)", "gspztc"),
        ("TEX at RRPV 2", None),
    ):
        ratios = []
        for spec in frames:
            baseline = frame_result(spec, "drrip", config)
            if policy:
                result = frame_result(spec, policy, config)
            else:
                result = simulate_trace(
                    frame_trace(spec, config), _TexRRPV2GSPZTC(), llc
                )
            ratios.append(result.misses_normalized_to(baseline))
        tex_insert.add_row(label, mean(ratios))

    render_caches = _render_cache_ablation(config)

    return [ladder, sampling, counters, tex_insert, render_caches]


def _render_cache_ablation(config: ExperimentConfig) -> Table:
    """Replay identical command streams through render caches of
    different sizes: how much short-range reuse do they keep away from
    the LLC, and how does that change GSPC's edge?"""
    from repro.config import RenderCachesConfig
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
    reference = config.scale**1.25
    for label, factor in (
        ("quarter", reference / 4),
        ("baseline", reference),
        ("4x", min(1.0, reference * 4)),
    ):
        caches = RenderCachesConfig().scaled(factor)
        lengths = []
        ratios = []
        for command_list in command_lists:
            trace = replay_command_list(command_list, caches)
            lengths.append(len(trace))
            baseline = simulate_trace(trace, "drrip", llc)
            result = simulate_trace(trace, "gspc+ucd", llc)
            ratios.append(result.misses_normalized_to(baseline))
        table.add_row(label, int(mean(lengths)), mean(ratios))
    return table
