"""End-to-end integration tests: the paper's qualitative shapes.

These run the full pipeline (synthetic frames -> render caches -> LLC ->
policies -> timing) at reduced scale and assert the *directional*
claims of the paper's evaluation, averaged over several applications to
ride out per-frame noise.  Exact magnitudes are recorded in
EXPERIMENTS.md, not asserted here.
"""

import pytest

from repro.config import paper_baseline
from repro.gpu.timing import FrameTimingSimulator
from repro.sim.offline import replay, simulate_trace
from repro.streams import StreamClass
from repro.workloads.apps import ALL_APPS
from repro.workloads.framegen import generate_frame_trace

SCALE = 0.125
#: A representative subset keeps the module's runtime reasonable.
APPS = [ALL_APPS[0], ALL_APPS[2], ALL_APPS[4], ALL_APPS[7]]
POLICIES = (
    "drrip",
    "nru",
    "belady",
    "gs-drrip",
    "gspztc",
    "gspztc+tse",
    "gspc+ucd",
)


@pytest.fixture(scope="module")
def system():
    return paper_baseline(llc_mb=8, scale=SCALE)


@pytest.fixture(scope="module")
def results(system):
    """misses[policy] summed over frames, plus per-frame stats."""
    per_policy = {policy: [] for policy in POLICIES}
    for app in APPS:
        trace = generate_frame_trace(app, 0, scale=SCALE)
        for policy in POLICIES:
            per_policy[policy].append(
                simulate_trace(trace, policy, system.llc)
            )
    return per_policy


def _avg_ratio(results, policy, baseline="drrip"):
    ratios = [
        results[policy][i].misses / results[baseline][i].misses
        for i in range(len(results[policy]))
    ]
    return sum(ratios) / len(ratios)


def test_belady_saves_large_miss_fraction(results):
    """Figure 1: OPT exposes a big opportunity versus DRRIP."""
    assert _avg_ratio(results, "belady") < 0.9


def test_nru_worse_than_drrip(results):
    """Figure 1: NRU increases misses on average."""
    assert _avg_ratio(results, "nru") > 1.0


def test_gspztc_beats_gs_drrip_beats_drrip_on_average(results):
    """Figure 12 ordering (direction, not magnitude)."""
    assert _avg_ratio(results, "gspztc") <= _avg_ratio(results, "gs-drrip") + 0.01


def test_gspc_ucd_saves_misses(results):
    """Figure 12: the final proposal beats the DRRIP baseline."""
    assert _avg_ratio(results, "gspc+ucd") < 1.0


def test_opt_texture_hit_rate_dwarfs_online(results):
    """Figure 5: OPT's texture hit rate far exceeds DRRIP's."""
    opt = [r.stats.tex_hit_rate for r in results["belady"]]
    drrip = [r.stats.tex_hit_rate for r in results["drrip"]]
    assert sum(opt) / len(opt) > 1.4 * (sum(drrip) / len(drrip))


def test_opt_consumes_more_render_targets(results):
    """Figure 6: OPT realizes more RT->TEX consumption than DRRIP."""
    opt = [r.stats.rt_consumption_rate for r in results["belady"]]
    drrip = [r.stats.rt_consumption_rate for r in results["drrip"]]
    assert sum(opt) > sum(drrip)


def test_rt_hit_rate_gap_small(results):
    """Figure 5: the RT (blending) hit-rate gap OPT-vs-DRRIP is small
    compared to the texture gap."""
    opt = sum(r.stats.rt_hit_rate for r in results["belady"])
    drrip = sum(r.stats.rt_hit_rate for r in results["drrip"])
    assert opt / drrip < 1.25


def test_texture_epoch_shape(system):
    """Figure 7: most intra-stream texture hits come from E0, and E0's
    death ratio exceeds E2's."""
    from repro.analysis.characterize import characterize_frame

    trace = generate_frame_trace(APPS[0], 0, scale=SCALE)
    record = replay(trace, "belady", system.llc)
    epochs = characterize_frame(trace, record, system.llc)[StreamClass.TEX]
    distribution = epochs.hit_distribution()
    assert distribution[0] > 0.5
    assert epochs.death_ratio(0) > epochs.death_ratio(2)


def test_z_epochs_live_longer_than_texture(system):
    """Figures 7 vs 9: the Z stream's young blocks are far more likely
    to survive than texture blocks (the observation behind tracking
    epochs only for textures), and Z blocks that get one reuse tend to
    keep being reused."""
    from repro.analysis.characterize import characterize_frame

    z_totals = [0.0, 0.0]
    tex_e0 = 0.0
    for app in APPS[:2]:
        trace = generate_frame_trace(app, 0, scale=SCALE)
        record = replay(trace, "belady", system.llc)
        epochs = characterize_frame(trace, record, system.llc)
        for e in range(2):
            z_totals[e] += epochs[StreamClass.Z].death_ratio(e)
        tex_e0 += epochs[StreamClass.TEX].death_ratio(0)
    assert z_totals[0] >= z_totals[1]      # Z deaths fall with epoch
    assert tex_e0 > z_totals[0]            # textures die far more in E0


def test_speedup_tracks_miss_savings(system):
    """Figures 15: policies that save misses run faster, with damping."""
    simulator = FrameTimingSimulator(system)
    trace = generate_frame_trace(APPS[1], 0, scale=SCALE)
    base = simulator.run(trace, replay(trace, "drrip+ucd", system.llc))
    opt = simulator.run(trace, replay(trace, "belady+ucd", system.llc))
    assert opt.speedup_over(base) > 1.0
