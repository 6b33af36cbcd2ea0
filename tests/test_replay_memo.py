"""The experiments' memo of replay records.

fig15, fig16, fig17 and ``timing`` read their records through
:func:`repro.experiments.common.frame_replay`.  Run one after another in
one process, sharing the memo, they must give exactly the tables each
gives alone, and every (frame, policy, LLC) they need must be replayed
once: fig17 changes only the DRAM or the GPU around fig15's LLC, and
``timing``'s two models read the same record.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.experiments import common, fig15, fig17, timing_models
from repro.experiments.common import (
    ExperimentConfig,
    clear_result_caches,
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
