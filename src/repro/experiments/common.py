"""Shared infrastructure for the experiment modules.

* :class:`ExperimentConfig` — scale, frame selection, LLC size, cache
  directory.
* Frame-trace caching — synthetic frames are deterministic, so they are
  generated once per (app, frame, scale) and memoised on disk.
* Result caching — offline simulation results are memoised in-process so
  experiments that share (frame, policy) runs do not recompute them;
  the timing experiments also share whole replay records.
* The experiment registry used by the CLI runner and the benchmarks.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.characterize import FrameCharacterization, characterize_frame
from repro.analysis.tables import Table
from repro.config import DEFAULT_SCALE, LLCConfig, SystemConfig, paper_baseline
from repro.errors import ReproError
from repro.sim.offline import replay, simulate_trace
from repro.sim.results import Replay, SimResult
from repro.trace.io import load_trace, save_trace
from repro.trace.record import Trace
from repro.trace.sources import SOURCE_SYNTHETIC, resolve_source
from repro.workloads.apps import FrameSpec


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by every experiment."""

    #: Linear frame scale (1.0 = the paper's resolutions).
    scale: float = DEFAULT_SCALE
    #: Frames per application (None = every frame; 52 total).
    frames_per_app: Optional[int] = 1
    #: LLC capacity in MB before scaling (8 MB baseline, 16 MB Fig 16).
    llc_mb: int = 8
    #: Directory for memoised frame traces (None disables the cache).
    cache_dir: Optional[str] = ".repro_cache"
    #: Replay engine for offline simulations ("reference", "fast", or
    #: "auto").  Deliberately absent from the result-cache key: engines
    #: are result-identical, so cached entries are engine-agnostic.
    engine: str = "auto"
    #: Trace source spec: ``"synthetic"`` (the built-in renderer),
    #: ``"capture:PATH"`` or ``"replay:DIR"``
    #: (see :mod:`repro.trace.sources`).
    source: str = SOURCE_SYNTHETIC

    def system(self) -> SystemConfig:
        return paper_baseline(llc_mb=self.llc_mb, scale=self.scale)

    def llc(self) -> LLCConfig:
        return self.system().llc

    def trace_source(self):
        """The resolved :class:`~repro.trace.sources.TraceSource`."""
        return resolve_source(self.source)

    def frames(self) -> List[FrameSpec]:
        frames = self.trace_source().frames()
        if self.frames_per_app is None:
            return frames
        taken: Dict[str, int] = {}
        limited: List[FrameSpec] = []
        for spec in frames:
            count = taken.get(spec.app.abbrev, 0)
            if count < self.frames_per_app:
                limited.append(spec)
                taken[spec.app.abbrev] = count + 1
        return limited


# -- frame trace cache ---------------------------------------------------------

def frame_trace(spec: FrameSpec, config: ExperimentConfig) -> Trace:
    """The LLC trace of one frame, memoised on disk.

    The cache namespace keys on the source's content identity
    (:meth:`~repro.trace.sources.TraceSource.cache_token`): the
    synthetic source keeps the legacy flat layout, capture sources get
    a per-digest subdirectory (so two captures sharing workload/frame
    names never collide), and sources whose files are already
    replay-ready (``replay:``) bypass the cache entirely.
    """
    source = config.trace_source()
    token = source.cache_token()
    if config.cache_dir is None or token is None:
        return source.frame_trace(spec.app.abbrev, spec.frame_index, config.scale)
    stem = f"{spec.app.abbrev}_f{spec.frame_index}_s{config.scale:g}"
    traces_dir = os.path.join(config.cache_dir, "traces")
    if token:
        traces_dir = os.path.join(traces_dir, token)
    path = os.path.join(traces_dir, stem + ".gsct")
    if os.path.exists(path):
        try:
            return load_trace(path)  # columnar: memmapped zero-copy
        except ReproError:
            pass  # stale/corrupt cache entry: regenerate below
    trace = source.frame_trace(spec.app.abbrev, spec.frame_index, config.scale)
    save_trace(trace, path)
    return trace


def frame_spec_for(
    workload: str, frame_index: int, config: ExperimentConfig
) -> FrameSpec:
    """Resolve a (workload, frame) pair through the config's source.

    The source-aware replacement for ``app_by_name`` + ``FrameSpec`` —
    capture/replay workloads are not Table 1 applications.
    """
    return config.trace_source().frame_spec(workload, frame_index)


# -- in-process result caches ----------------------------------------------------

_SIM_CACHE: Dict[Tuple, SimResult] = {}
_CHAR_CACHE: Dict[Tuple, FrameCharacterization] = {}
#: Replay records, kept only for the callers of :func:`frame_replay`.
_REPLAY_CACHE: Dict[Tuple, Replay] = {}


def _cache_key(spec: FrameSpec, policy: str, config: ExperimentConfig) -> Tuple:
    return (
        config.source,
        spec.app.abbrev,
        spec.frame_index,
        policy,
        config.scale,
        config.llc_mb,
    )


def frame_result(
    spec: FrameSpec, policy: str, config: ExperimentConfig
) -> SimResult:
    """Offline simulation of one (frame, policy), memoised in-process."""
    key = _cache_key(spec, policy, config)
    if key not in _SIM_CACHE:
        _SIM_CACHE[key] = simulate_trace(
            frame_trace(spec, config), policy, config.llc(), engine=config.engine
        )
    return _SIM_CACHE[key]


def frame_replay(spec: FrameSpec, policy: str, config: ExperimentConfig) -> Replay:
    """Replay record of one (frame, policy), memoised in-process.

    For the callers that read whole records (the timing models), so
    each (frame, policy, LLC) replays at most once per process.  A fill
    also stores the record's result for :func:`frame_result`.
    """
    key = _cache_key(spec, policy, config)
    if key not in _REPLAY_CACHE:
        record = replay(
            frame_trace(spec, config), policy, config.llc(), engine=config.engine
        )
        _REPLAY_CACHE[key] = record
        _SIM_CACHE.setdefault(key, record.result)
    return _REPLAY_CACHE[key]


def frame_characterization(
    spec: FrameSpec, policy: str, config: ExperimentConfig
) -> FrameCharacterization:
    """Characterization of one (frame, policy), memoised in-process."""
    key = _cache_key(spec, policy, config)
    if key not in _CHAR_CACHE:
        _CHAR_CACHE[key] = characterize_frame(
            frame_trace(spec, config), policy, config.llc(), engine=config.engine
        )
    return _CHAR_CACHE[key]


def seed_frame_result(
    spec: FrameSpec, policy: str, config: ExperimentConfig, result: SimResult
) -> None:
    """Inject a precomputed :func:`frame_result` into the in-process cache.

    Used by ``gspc-experiments --jobs`` to publish worker-process results
    so a subsequent serial :meth:`Experiment.run` replays entirely from
    cache.
    """
    _SIM_CACHE[_cache_key(spec, policy, config)] = result


def seed_frame_characterization(
    spec: FrameSpec,
    policy: str,
    config: ExperimentConfig,
    characterization: FrameCharacterization,
) -> None:
    """Inject a precomputed :func:`frame_characterization` (see above)."""
    _CHAR_CACHE[_cache_key(spec, policy, config)] = characterization


def clear_result_caches() -> None:
    _SIM_CACHE.clear()
    _CHAR_CACHE.clear()
    _REPLAY_CACHE.clear()


def app_average(values_by_frame: Dict[str, List[float]]) -> Dict[str, float]:
    """Collapse per-frame values into per-application averages."""
    return {
        app: sum(values) / len(values)
        for app, values in values_by_frame.items()
        if values
    }


def group_frames_by_app(
    frames: Sequence[FrameSpec],
) -> Dict[str, List[FrameSpec]]:
    grouped: Dict[str, List[FrameSpec]] = {}
    for spec in frames:
        grouped.setdefault(spec.app.abbrev, []).append(spec)
    return grouped


# -- experiment registry -----------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Experiment:
    """A registered reproduction of one paper table/figure.

    ``sim_policies`` / ``char_policies`` declare the per-frame
    :func:`frame_result` / :func:`frame_characterization` calls the
    experiment will issue, so ``gspc-experiments --jobs`` can precompute
    them in worker processes.  ``needs_traces`` marks experiments that read
    frame traces at all (``False`` for pure-metadata tables), letting
    the planner skip the trace-generation wave entirely.  Declarations
    are an optimization hint, never a correctness requirement: anything
    undeclared simply runs serially inside :meth:`run`.
    """

    id: str
    title: str
    paper_claim: str
    run: Callable[[ExperimentConfig], List[Table]]
    #: Policies simulated per frame via :func:`frame_result`.
    sim_policies: Tuple[str, ...] = ()
    #: Policies characterized per frame via :func:`frame_characterization`.
    char_policies: Tuple[str, ...] = ()
    #: Whether the experiment reads frame traces at all.
    needs_traces: bool = True


EXPERIMENTS: Dict[str, Experiment] = {}


def register(
    id: str,
    title: str,
    paper_claim: str,
    sim_policies: Sequence[str] = (),
    char_policies: Sequence[str] = (),
    needs_traces: bool = True,
):
    """Decorator registering an experiment entry point."""

    def wrap(func: Callable[[ExperimentConfig], List[Table]]) -> Callable:
        EXPERIMENTS[id] = Experiment(
            id,
            title,
            paper_claim,
            func,
            sim_policies=tuple(sim_policies),
            char_policies=tuple(char_policies),
            needs_traces=needs_traces,
        )
        return func

    return wrap


def get_experiment(id: str) -> Experiment:
    key = id.strip().lower()
    if key not in EXPERIMENTS:
        # Import the experiment modules lazily so the registry fills in.
        _import_all()
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ReproError(f"unknown experiment {id!r}; known: {known}")
    return EXPERIMENTS[key]


def _import_all() -> None:
    from repro.experiments import (  # noqa: F401
        ablation,
        extensions,
        fig01,
        fig04,
        fig05,
        fig06,
        fig07,
        fig08,
        fig09,
        fig11,
        fig12,
        fig13,
        fig14,
        fig15,
        fig16,
        fig17,
        table1,
        table6,
        timing_models,
    )


def all_experiments() -> Dict[str, Experiment]:
    _import_all()
    return dict(EXPERIMENTS)
