"""The extended workload families (repro.workloads.families).

Covers the registry, per-family determinism, the coherent similarity
knob, the designed envelope verdicts (coherent conforms, graph and
compute deliberately violate), fast-vs-reference engine equivalence on
family traces, resolution through ``SyntheticSource`` and the sweep
spec, the zero-frame ``TraceError`` guard, and the families CLI
exit-code contract (0 conform / 2 usage / 3 violate).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SweepError, TraceError, WorkloadError
from repro.trace.sources.envelope import characterize_capture, check_envelope
from repro.trace.sources.synthetic import SyntheticSource
from repro.workloads.apps import frames_for_app
from repro.workloads.families import (
    FAMILY_ENVELOPE_CONFORMANT,
    all_families,
    family_by_name,
    family_workloads,
    is_family_workload,
)
from repro.workloads.families.__main__ import main as families_cli
from repro.workloads.families.coherent import inter_frame_overlap

#: Small enough that every generated frame is a fraction of a second.
SCALE = 0.03125

#: One representative preset per family, used by the heavier tests.
REPRESENTATIVES = ("coh-med", "graph-bfs", "comp-stream")


# -- registry -----------------------------------------------------------------

def test_registry_shape():
    assert all_families() == ["coherent", "graph", "compute"]
    for family in all_families():
        presets = family_workloads(family)
        assert len(presets) == 3
        assert all(p.family == family for p in presets)


def test_lookup_by_name_and_abbrev():
    assert family_by_name("coh-hi") is family_by_name("coherent-high")
    assert family_by_name("graph-pr").mode == "pr"
    assert is_family_workload("comp-reduce")
    assert not is_family_workload("DMC")  # Table 1 apps are not families
    with pytest.raises(WorkloadError):
        family_by_name("nosuch")
    with pytest.raises(WorkloadError):
        family_workloads("nosuch-family")


# -- generation ---------------------------------------------------------------

@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_generation_is_deterministic(name):
    workload = family_by_name(name)
    first = workload.generate(0, SCALE)
    second = workload.generate(0, SCALE)
    assert np.array_equal(first.addresses, second.addresses)
    assert np.array_equal(first.streams, second.streams)
    assert np.array_equal(first.writes, second.writes)


@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_frames_actually_vary(name):
    workload = family_by_name(name)
    first = workload.generate(0, SCALE)
    second = workload.generate(1, SCALE)
    assert not (
        len(first) == len(second)
        and np.array_equal(first.addresses, second.addresses)
    )


def test_similarity_knob_orders_inter_frame_overlap():
    overlaps = {
        name: inter_frame_overlap(family_by_name(name), SCALE)
        for name in ("coh-hi", "coh-med", "coh-lo")
    }
    assert overlaps["coh-hi"] > overlaps["coh-lo"]
    assert all(0.0 < value <= 1.0 for value in overlaps.values())


# -- envelope verdicts --------------------------------------------------------

@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_envelope_verdict_matches_design(name):
    workload = family_by_name(name)
    violations = check_envelope(
        characterize_capture(workload.generate(0, SCALE))
    )
    expected_conformant = FAMILY_ENVELOPE_CONFORMANT[workload.family]
    assert (not violations) == expected_conformant, violations


# -- engine equivalence -------------------------------------------------------

@pytest.mark.parametrize("name", REPRESENTATIVES)
def test_fast_engine_matches_reference(name):
    from repro.config import paper_baseline
    from repro.sim.offline import simulate_trace

    trace = family_by_name(name).generate(0, SCALE)
    llc = paper_baseline(llc_mb=1, scale=SCALE).llc
    for policy in ("lru", "gspc"):
        ref = simulate_trace(trace, policy, llc, engine="reference")
        fast = simulate_trace(trace, policy, llc, engine="fast")
        assert (ref.hits, ref.misses) == (fast.hits, fast.misses)


# -- source and sweep integration ---------------------------------------------

def test_synthetic_source_resolves_but_does_not_enumerate():
    source = SyntheticSource()
    spec = source.frame_spec("graph-chase", 2)
    assert spec.app.abbrev == "graph-chase"
    assert spec.frame_index == 2
    trace = source.frame_trace("coh-hi", 0, SCALE)
    assert len(trace) > 0
    # The published 12-app x 52-frame set stays exactly as it was.
    enumerated = {workload.name for workload in source.workloads()}
    assert len(source.frames()) == 52
    assert not any(is_family_workload(name) for name in enumerated)


def test_sweep_spec_expands_family_apps():
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec(
        name="fam",
        policies=("lru",),
        apps=("coh-hi", "graph-bfs", "comp-stream"),
        frames_per_app=2,
        scale=SCALE,
    )
    frames = spec.frames()
    assert len(frames) == 6
    assert {frame.app.abbrev for frame in frames} == {
        "coh-hi", "graph-bfs", "comp-stream"
    }
    with pytest.raises(SweepError):
        SweepSpec(name="bad", policies=("lru",), apps=("nosuch",))


def test_frames_per_app_clamps_to_family_num_frames():
    from repro.sweep.spec import SweepSpec

    spec = SweepSpec(
        name="fam",
        policies=("lru",),
        apps=("coh-hi",),
        frames_per_app=99,  # presets define 4 frames
        scale=SCALE,
    )
    assert len(spec.frames()) == family_by_name("coh-hi").num_frames


# -- zero-frame guard ---------------------------------------------------------

class _Frameless:
    name = "frameless"
    abbrev = "none"
    num_frames = 0


def test_frames_for_app_rejects_zero_frames():
    with pytest.raises(TraceError):
        frames_for_app(_Frameless())
    assert len(frames_for_app(family_by_name("coh-hi"))) == 4


# -- CLI exit-code contract ---------------------------------------------------

def test_cli_list(capsys):
    assert families_cli(["list"]) == 0
    out = capsys.readouterr().out
    for name in REPRESENTATIVES:
        assert name in out


def test_cli_check_exit_codes(capsys):
    args = ["--frame", "0", "--scale", str(SCALE)]
    assert families_cli(["check", "coh-hi", *args]) == 0
    assert families_cli(["check", "graph-bfs", *args]) == 3
    # Mixed conform/violate fails the gate.
    assert families_cli(["check", "coh-hi", "graph-bfs", *args]) == 3
    capsys.readouterr()


def test_cli_usage_errors(capsys):
    assert families_cli(["check", "nosuch"]) == 2
    assert families_cli(["nosuch-command"]) == 2
    capsys.readouterr()
