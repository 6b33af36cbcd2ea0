"""Declarative sweep specifications and their job-DAG expansion.

A :class:`SweepSpec` names a (policy × cache geometry × workload-set ×
engine) grid.  :func:`expand` turns it into a deterministic list of
:class:`SweepJob` nodes: one ``trace`` job per (app, frame) — shared by
every geometry, since traces are geometry-independent — and one ``sim``
job per (app, frame, policy, llc_mb), each declaring a dependency edge
on its frame's trace job.  The plan order (traces first, then sims in
sorted order) is what fault specs' ``job=K`` ordinals and the result
CSV's row order refer to, so it must stay stable across releases.

Specs serialize to canonical JSON; the CLI persists the spec into the
sweep directory on the first run so ``--resume`` re-expands the exact
same DAG.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_SCALE
from repro.core.registry import UCD_SUFFIX, available_policies
from repro.errors import ReproError, SourceError, SweepError
from repro.experiments.common import ExperimentConfig
from repro.fastsim.dispatch import ENGINES
from repro.parallel.jobs import JOB_KINDS, SimJob
from repro.trace.sources import (
    SOURCE_SYNTHETIC,
    resolve_source,
    validate_source_spec,
)
from repro.workloads.apps import ALL_APPS, FrameSpec

#: Filename the CLI persists the spec under inside the sweep directory.
SPEC_FILENAME = "spec.json"

_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")

#: Keys a spec dict may carry (anything else is a typo, not a feature).
SPEC_KEYS = (
    "name",
    "policies",
    "llc_mb",
    "apps",
    "frames_per_app",
    "scale",
    "engine",
    "source",
)


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One declarative (policy × geometry × workload × engine) grid."""

    name: str
    policies: Tuple[str, ...]
    llc_mb: Tuple[int, ...] = (8,)
    #: Workload names (Table 1 abbreviations for the synthetic source,
    #: captured workload names otherwise); empty = every workload the
    #: source exposes.
    apps: Tuple[str, ...] = ()
    frames_per_app: int = 1
    scale: float = DEFAULT_SCALE
    engine: str = "auto"
    #: Trace source axis: ``"synthetic"``, ``"capture:PATH"`` or
    #: ``"replay:DIR"`` (see :mod:`repro.trace.sources`).
    source: str = SOURCE_SYNTHETIC

    def __post_init__(self) -> None:
        if not self.name or not _NAME_RE.match(self.name):
            raise SweepError(
                f"sweep name must match {_NAME_RE.pattern}, got {self.name!r}"
            )
        if not self.policies:
            raise SweepError("sweep needs at least one policy")
        known = set(available_policies())
        for policy in self.policies:
            base = policy[: -len(UCD_SUFFIX)] if policy.endswith(UCD_SUFFIX) else policy
            if base not in known:
                raise SweepError(
                    f"unknown policy {policy!r}; known: {sorted(known)}"
                )
        if len(set(self.policies)) != len(self.policies):
            raise SweepError(f"duplicate policies in {self.policies}")
        if not self.llc_mb:
            raise SweepError("sweep needs at least one llc_mb geometry")
        for mb in self.llc_mb:
            if not isinstance(mb, int) or isinstance(mb, bool) or mb < 1:
                raise SweepError(f"llc_mb entries must be positive ints, got {mb!r}")
        if len(set(self.llc_mb)) != len(self.llc_mb):
            raise SweepError(f"duplicate llc_mb geometries in {self.llc_mb}")
        try:
            validate_source_spec(self.source)
        except SourceError as exc:
            raise SweepError(str(exc)) from exc
        if self.source == SOURCE_SYNTHETIC:
            # Non-synthetic workload names live in capture files; they
            # are validated lazily when the source is resolved.
            from repro.workloads.families import is_family_workload

            known_apps = {app.abbrev for app in ALL_APPS}
            for abbrev in self.apps:
                if abbrev not in known_apps and not is_family_workload(abbrev):
                    raise SweepError(
                        f"unknown app {abbrev!r}; known: {sorted(known_apps)} "
                        "plus the extended family workloads "
                        "(`python -m repro.workloads.families list`)"
                    )
        if self.frames_per_app < 1:
            raise SweepError(
                f"frames_per_app must be >= 1, got {self.frames_per_app}"
            )
        if not (0 < self.scale <= 1.0):
            raise SweepError(f"scale must be in (0, 1], got {self.scale}")
        if self.engine not in ENGINES:
            raise SweepError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )

    @classmethod
    def from_dict(cls, data: object) -> "SweepSpec":
        if not isinstance(data, dict):
            raise SweepError(
                f"sweep spec must be an object, got {type(data).__name__}"
            )
        unknown = set(data) - set(SPEC_KEYS)
        if unknown:
            raise SweepError(f"unknown spec key(s): {sorted(unknown)}")
        if "name" not in data or "policies" not in data:
            raise SweepError("sweep spec needs at least 'name' and 'policies'")
        kwargs = dict(data)
        for key in ("policies", "llc_mb", "apps"):
            if key in kwargs:
                value = kwargs[key]
                if not isinstance(value, (list, tuple)):
                    raise SweepError(f"spec {key!r} must be a list, got {value!r}")
                kwargs[key] = tuple(value)
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON form, stable key order (the canonical identity)."""
        return {
            "name": self.name,
            "policies": list(self.policies),
            "llc_mb": list(self.llc_mb),
            "apps": list(self.apps),
            "frames_per_app": self.frames_per_app,
            "scale": self.scale,
            "engine": self.engine,
            "source": self.source,
        }

    def frames(self) -> List[FrameSpec]:
        try:
            source = resolve_source(self.source)
            available = source.frames()
        except SourceError as exc:
            raise SweepError(str(exc)) from exc
        by_app: Dict[str, List[FrameSpec]] = {}
        for frame in available:
            by_app.setdefault(frame.app.abbrev, []).append(frame)
        names = tuple(self.apps) if self.apps else tuple(sorted(by_app))
        missing: List[str] = []
        for name in names:
            if name in by_app:
                continue
            # Workloads the source resolves by name without enumerating —
            # the extended family presets (coherent/graph/compute) ride
            # the workload axis this way, keeping the enumerated Table 1
            # frame set (and every golden pinned to it) untouched.
            try:
                workload = source.frame_spec(name, 0).app
            except ReproError:
                missing.append(name)
                continue
            count = min(self.frames_per_app, int(workload.num_frames))
            by_app[name] = [
                FrameSpec(workload, index) for index in range(count)
            ]
        if missing:
            raise SweepError(
                f"source {self.source!r} has no workload(s) {missing}; "
                f"available: {sorted(by_app)}"
            )
        return [
            frame
            for name in names
            for frame in by_app[name][: self.frames_per_app]
        ]

    def config_for(
        self, llc_mb: int, cache_dir: Optional[str]
    ) -> ExperimentConfig:
        """The per-job :class:`ExperimentConfig` for one geometry."""
        return ExperimentConfig(
            scale=self.scale,
            frames_per_app=self.frames_per_app,
            llc_mb=llc_mb,
            cache_dir=cache_dir,
            engine=self.engine,
            source=self.source,
        )


@dataclasses.dataclass(frozen=True, order=True)
class SweepJob:
    """One node of the sweep DAG (a geometry-qualified ``SimJob``);
    ``char`` nodes come only from ``gspc-experiments --jobs`` plans."""

    kind: str  # "trace" | "sim" | "char"
    app: str
    frame_index: int
    policy: str = ""
    llc_mb: int = 0
    #: Job ids that must reach a terminal state before this job starts.
    deps: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise SweepError(f"unknown sweep job kind {self.kind!r}")
        if self.kind != "trace" and (not self.policy or self.llc_mb < 1):
            raise SweepError(
                f"{self.kind} job needs a policy and geometry: {self}"
            )

    @property
    def job_id(self) -> str:
        if self.kind == "trace":
            return f"trace:{self.app}:f{self.frame_index}"
        return (
            f"{self.kind}:{self.app}:f{self.frame_index}:{self.policy}"
            f":llc{self.llc_mb}"
        )

    def sim_job(self) -> SimJob:
        """The :mod:`repro.parallel` payload this node executes."""
        return SimJob(self.kind, self.app, self.frame_index, self.policy)


def expand(spec: SweepSpec) -> List[SweepJob]:
    """The spec's full job DAG in canonical plan order.

    Trace jobs come first (each frame generated exactly once, shared by
    every geometry through the on-disk trace cache); sim jobs follow,
    sorted by (app, frame, llc_mb, policy).  Sim→trace dependency edges
    are scheduling constraints, not correctness requirements — a sim
    whose trace job failed permanently still runs and regenerates the
    trace itself.
    """
    frames = sorted(
        spec.frames(), key=lambda f: (f.app.abbrev, f.frame_index)
    )
    traces = [
        SweepJob("trace", frame.app.abbrev, frame.frame_index)
        for frame in frames
    ]
    trace_id = {
        (job.app, job.frame_index): job.job_id for job in traces
    }
    sims = [
        SweepJob(
            "sim",
            frame.app.abbrev,
            frame.frame_index,
            policy,
            llc_mb,
            deps=(trace_id[(frame.app.abbrev, frame.frame_index)],),
        )
        for frame in frames
        for llc_mb in spec.llc_mb
        for policy in spec.policies
    ]
    sims.sort(key=lambda j: (j.app, j.frame_index, j.llc_mb, j.policy))
    plan = traces + sims
    ids = [job.job_id for job in plan]
    if len(set(ids)) != len(ids):
        raise SweepError("sweep expansion produced duplicate job ids")
    return plan


# -- spec persistence ---------------------------------------------------------

def load_spec(path: str) -> SweepSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SweepError(f"cannot load sweep spec {path}: {exc}") from exc
    return SweepSpec.from_dict(data)


def save_spec(spec: SweepSpec, path: str) -> None:
    """Persist the spec atomically (tmp + rename, fsync'd)."""
    from repro.sweep.journal import write_atomic

    write_atomic(path, json.dumps(spec.to_dict(), indent=2) + "\n")


def spec_path(sweep_dir: str) -> str:
    return os.path.join(sweep_dir, SPEC_FILENAME)


def specs_equal(left: SweepSpec, right: SweepSpec) -> bool:
    return left.to_dict() == right.to_dict()


def spec_from_args(
    name: str,
    policies: Sequence[str],
    llc_mb: Sequence[int],
    apps: Sequence[str],
    frames_per_app: int,
    scale: float,
    engine: str,
    source: str = SOURCE_SYNTHETIC,
) -> SweepSpec:
    """Build a spec from CLI flags (same validation as a spec file)."""
    return SweepSpec(
        name=name,
        policies=tuple(policies),
        llc_mb=tuple(llc_mb),
        apps=tuple(apps),
        frames_per_app=frames_per_app,
        scale=scale,
        engine=engine,
        source=source,
    )
