"""The experiments' memo of replay records.

fig15, fig16, fig17 and ``timing`` read their records through
:func:`repro.experiments.common.frame_replay`.  Run one after another in
one process, sharing the memo, they must give exactly the tables each
gives alone, and every (frame, policy, LLC) they need must be replayed
once: fig17 changes only the DRAM or the GPU around fig15's LLC, and
``timing``'s two models read the same record.

fig11 and the ablation name their policy variants (``gspztc(t=4)``),
so those replay once per frame through the same memo.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.core.registry import policy_spec
from repro.experiments import ablation, common, fig11, fig15, fig17, timing_models
from repro.experiments.common import (
    ExperimentConfig,
    clear_result_caches,
    frame_result,
    get_experiment,
)
from repro.sim import offline

EXPERIMENTS = ("fig15", "fig16", "fig17", "timing")


@pytest.fixture(scope="module")
def config(tmp_path_factory):
    """Every app's frame 0 at 1/32 scale, over a module-wide trace cache."""
    return ExperimentConfig(
        scale=0.03125,
        frames_per_app=1,
        cache_dir=str(tmp_path_factory.mktemp("trace-cache")),
    )


@pytest.fixture(scope="module")
def shared(config):
    """The four experiments in one process, with every LLC replay counted
    by (frame, policy, LLC)."""
    replays = collections.Counter()
    simulate = offline.simulate_trace

    def counting(trace, policy, llc_config=None, *args, **kwargs):
        replays[(trace.meta["name"], policy, llc_config)] += 1
        return simulate(trace, policy, llc_config, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(offline, "simulate_trace", counting)
        patch.setattr(common, "simulate_trace", counting)
        clear_result_caches()
        tables = {id: get_experiment(id).run(config) for id in EXPERIMENTS}
        clear_result_caches()
    return tables, replays


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_shared_memo_gives_the_tables_of_a_run_alone(config, shared, experiment):
    tables, _ = shared
    clear_result_caches()
    try:
        assert get_experiment(experiment).run(config) == tables[experiment]
    finally:
        clear_result_caches()


def test_each_frame_policy_and_llc_replays_once(config, shared):
    _, replays = shared
    big = dataclasses.replace(config, llc_mb=16)
    needed = {
        (config.llc(), fig15.BASELINE),
        (big.llc(), fig15.BASELINE),
        (config.llc(), timing_models.BASELINE),
    }
    needed |= {(config.llc(), policy) for policy in fig15.POLICIES}
    needed |= {(big.llc(), policy) for policy in fig15.POLICIES}
    needed |= {(config.llc(), policy) for policy in fig17.POLICIES}
    needed |= {(config.llc(), policy) for policy in timing_models.POLICIES}
    expected = {
        (f"{spec.app.abbrev}#f{spec.frame_index}", policy, llc): 1
        for spec in config.frames()
        for llc, policy in needed
    }
    assert dict(replays) == expected


@pytest.fixture(scope="module")
def variants(config):
    """fig11 and the ablation in one process, with every replay of a
    frame trace counted by (frame, resolved policy, LLC), wherever the
    call is bound."""
    replays = collections.Counter()
    simulate = offline.simulate_trace

    def counting(trace, policy, llc_config=None, *args, **kwargs):
        if not trace.meta.get("replayed"):  # Ablation E's command streams
            name = policy_spec(policy).name if isinstance(policy, str) else policy.name
            replays[(trace.meta["name"], name, llc_config)] += 1
        return simulate(trace, policy, llc_config, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (offline, common, fig11, ablation):
            patch.setattr(module, "simulate_trace", counting, raising=False)
        clear_result_caches()
        for id in ("fig11", "ablation"):
            get_experiment(id).run(config)
        clear_result_caches()
    return replays


def test_policy_variants_replay_once_per_frame(config, variants):
    """Every declared policy replays once per frame: fig11's ``t=8``,
    Ablation C's 8-bit counters and Ablation D's paper row share
    ``gspztc``, and Ablation B normalizes to the one ``drrip`` replay.
    Ablation B's GSPZTC at the default sample period is Ablation A's
    ``gspztc``; only its other periods run outside the memo (the LLC,
    not the policy, varies there).  At 1/32 scale no other period fits,
    so nothing does."""
    llc = config.llc()
    declared = set(get_experiment("fig11").sim_policies)
    declared |= set(get_experiment("ablation").sim_policies)
    expected = collections.Counter()
    for spec in config.frames():
        frame = f"{spec.app.abbrev}#f{spec.frame_index}"
        for policy in declared:
            expected[(frame, policy, llc)] += 1
        for period in ablation.SAMPLE_PERIODS:
            variant = dataclasses.replace(llc, sample_period=period)
            if period <= llc.num_sets // 2 and variant != llc:
                expected[(frame, "gspztc", variant)] += 1
    assert dict(variants) == dict(expected)
    frame = f"{config.frames()[0].app.abbrev}#f0"
    assert variants[(frame, "drrip", llc)] == 1
    assert variants[(frame, "gspztc", llc)] == 1
    assert all(key[2] == llc for key in variants)
    assert {"gspztc(t=4)", "gspztc(counter_bits=6)", "gspztc(tex_rrpv=2)"} <= declared


def test_any_spelling_shares_one_result(config):
    spec = config.frames()[0]
    clear_result_caches()
    try:
        result = frame_result(spec, "gspztc", config)
        assert frame_result(spec, "gspztc(t=8)", config) is result
        assert frame_result(spec, " GSPZTC(counter_bits=8) ", config) is result
        assert frame_result(spec, "gspztc(t=4)", config) is not result
    finally:
        clear_result_caches()


def test_render_cache_ablation_replays_each_configuration_once(config):
    """At 1/32 scale Ablation E's quarter-size render caches hit the
    baseline's size floors: one configuration, replayed once per app."""
    from repro.workloads import replay as command_replay

    replays = collections.Counter()
    replay_command_list = command_replay.replay_command_list

    def counting(command_list, caches, *args, **kwargs):
        replays[caches] += 1
        return replay_command_list(command_list, caches, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(command_replay, "replay_command_list", counting)
        clear_result_caches()
        table = ablation._render_cache_ablation(config)
        clear_result_caches()
    assert sorted(replays.values()) == [4, 4]
    quarter, baseline, _ = table.rows
    assert quarter[1:] == baseline[1:]
