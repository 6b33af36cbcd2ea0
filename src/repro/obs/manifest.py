"""Machine-readable run manifests.

Every simulation entry point can emit one JSON *manifest* describing
what ran and what happened: configuration, policy, trace metadata,
metric snapshots, the setup/replay phase-timing split, and a sampled
event-trace summary.  Manifests make the repo's performance trajectory
data instead of stdout — ``gspc-report`` (:mod:`repro.obs.report`)
tabulates them one row per run, and CI validates a freshly emitted one
against the schema on every push (``python -m repro.obs out/*.json``).

Six manifest kinds share one envelope (``schema_version``, ``kind``,
``created_unix``, ``config``, ``phases``):

* ``offline-sim`` — one policy replayed over one trace
  (:func:`sim_manifest`).
* ``frame-timing`` — the frame-timing model's outcome
  (:func:`timing_manifest`).
* ``experiment`` — one registered paper experiment
  (:func:`experiment_manifest`).
* ``sweep`` — one fault-tolerant sweep run (:func:`sweep_manifest`):
  per-job deterministic result payloads in ``metrics`` and per-job
  attempt bookkeeping in ``jobs`` (kept out of ``metrics`` so
  crash/resume-equivalence diffs compare results, not retry history).
* ``serve`` — one ``gspc-serve`` process life (:func:`serve_manifest`):
  request/cache/coalescing counters in ``serve`` and the service's
  metrics-registry snapshot (latency histogram included) in
  ``metrics``.
* ``ingest`` — one ``gspc-ingest`` conversion (:func:`ingest_manifest`):
  the originating source's identity in ``source``, aggregate conversion
  counters in ``metrics``, and one per-frame entry in ``frames`` with
  the stream-mix/reuse characterization and its Table 1 envelope
  verdict.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
from typing import Dict, List, Mapping, Optional

from repro.errors import ObservabilityError
from repro.obs.spans import SpanRecorder

SCHEMA_VERSION = 1

#: Top-level keys every manifest must carry.
ENVELOPE_KEYS = ("schema_version", "kind", "created_unix", "config", "phases")
#: Keys the ``phases`` section must carry, all numbers.
PHASE_KEYS = ("setup_seconds", "replay_seconds", "elapsed_seconds")
#: Additional required keys per manifest kind.
KIND_KEYS = {
    "offline-sim": ("policy", "trace", "metrics", "events"),
    "frame-timing": ("policy", "trace", "metrics"),
    "experiment": ("experiment", "metrics"),
    "sweep": ("sweep", "metrics", "jobs"),
    "serve": ("serve", "metrics"),
    "ingest": ("source", "metrics", "frames"),
}


def _jsonable(value):
    """Coerce numpy scalars, dataclasses, tuples and sets to JSON types."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _jsonable(dataclasses.asdict(value))
    if isinstance(value, Mapping):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, bool, int, float)) or value is None:
        return value
    for caster in (int, float):
        try:
            return caster(value)  # numpy integer/floating scalars
        except (TypeError, ValueError):
            continue
    return str(value)


def _phases(
    setup_seconds: float,
    replay_seconds: float,
    spans: Optional[SpanRecorder] = None,
) -> Dict[str, object]:
    phases: Dict[str, object] = {
        "setup_seconds": setup_seconds,
        "replay_seconds": replay_seconds,
        "elapsed_seconds": setup_seconds + replay_seconds,
    }
    if spans is not None:
        phases["spans"] = spans.flat()
    return phases


def _envelope(kind: str, config, phases: Dict[str, object]) -> Dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "created_unix": time.time(),
        "config": _jsonable(config if config is not None else {}),
        "phases": phases,
    }


def sim_manifest(
    result,
    config=None,
    events: Optional[Dict[str, object]] = None,
    spans: Optional[SpanRecorder] = None,
    engine: Optional[str] = None,
) -> Dict[str, object]:
    """Manifest for one :class:`~repro.sim.results.SimResult`.

    ``events`` is the run's :func:`~repro.obs.events.sample_events`
    summary and ``spans`` its live phase recorder.
    ``engine`` records which replay engine produced the result
    (``"reference"`` or ``"fast"``, never the unresolved ``"auto"``).
    """
    manifest = _envelope(
        "offline-sim",
        config,
        _phases(result.setup_seconds, result.replay_seconds, spans),
    )
    manifest.update(
        policy=result.policy,
        trace={"accesses": result.accesses, **_jsonable(result.trace_meta)},
        metrics=_jsonable(result.stats.snapshot()),
        events=events,
        extras=_jsonable(result.extras),
    )
    if engine is not None:
        manifest["engine"] = engine
    return manifest


def timing_manifest(
    timing,
    config=None,
    trace_meta: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Manifest for one :class:`~repro.gpu.timing.FrameTiming`."""
    manifest = _envelope(
        "frame-timing",
        config,
        _phases(timing.setup_seconds, timing.replay_seconds),
    )
    manifest.update(
        policy=timing.policy,
        trace={"accesses": timing.accesses, **_jsonable(trace_meta or {})},
        metrics=_jsonable(timing.to_dict()),
    )
    return manifest


def experiment_manifest(
    experiment_id: str,
    title: str,
    config=None,
    elapsed_seconds: float = 0.0,
    tables: Optional[List] = None,
    spans: Optional[SpanRecorder] = None,
    parallel: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Manifest for one registered experiment run.

    ``parallel``, when the experiment ran under ``--jobs``, records the
    :func:`~repro.experiments.runner.parallel_section` — worker count,
    per-job wall times, and the speedup over the estimated serial time.
    """
    manifest = _envelope(
        "experiment", config, _phases(0.0, elapsed_seconds, spans)
    )
    manifest.update(
        experiment={"id": experiment_id, "title": title},
        metrics={
            "tables": [
                {"title": table.title, "columns": list(table.headers),
                 "rows": len(table.rows)}
                for table in (tables or [])
            ]
        },
    )
    if parallel is not None:
        manifest["parallel"] = _jsonable(parallel)
    return manifest


def sweep_manifest(
    config,
    sweep: Mapping[str, object],
    metrics: Mapping[str, object],
    jobs: List,
    wall_seconds: float = 0.0,
) -> Dict[str, object]:
    """Manifest for one :mod:`repro.sweep` run.

    ``config`` is the sweep spec dict (deterministic identity of the
    run); ``sweep`` summarizes orchestration (job counts, workers,
    retry policy, resumed-job count); ``metrics`` maps sim job ids to
    their deterministic result payloads; ``jobs`` carries per-job
    attempt bookkeeping (``attempts``, ``executed_attempts``,
    ``resumed``, terminal status) — deliberately outside ``metrics`` so
    metric diffs between a resumed and an uninterrupted run compare
    clean.
    """
    manifest = _envelope("sweep", config, _phases(0.0, wall_seconds))
    manifest.update(
        sweep=_jsonable(dict(sweep)),
        metrics=_jsonable(dict(metrics)),
        jobs=_jsonable(list(jobs)),
    )
    return manifest


def serve_manifest(
    config,
    serve: Mapping[str, object],
    metrics: Mapping[str, object],
    wall_seconds: float = 0.0,
) -> Dict[str, object]:
    """Manifest for one :mod:`repro.serve` process life.

    ``serve`` is the service's stats view (request, cache-hit,
    coalescing and computation counters plus store stats); ``metrics``
    is its metrics-registry snapshot, request-latency histogram
    included.
    """
    manifest = _envelope("serve", config, _phases(0.0, wall_seconds))
    manifest.update(
        serve=_jsonable(dict(serve)),
        metrics=_jsonable(dict(metrics)),
    )
    return manifest


def ingest_manifest(
    config,
    source: Mapping[str, object],
    metrics: Mapping[str, object],
    frames: List,
    wall_seconds: float = 0.0,
) -> Dict[str, object]:
    """Manifest for one ``gspc-ingest`` conversion.

    ``source`` is the originating :meth:`TraceSource.identity` (kind,
    path, content digest); ``metrics`` aggregates the conversion
    (frames/accesses converted, unknown-tag counts, conformance
    failures); ``frames`` carries one entry per converted frame with
    its ``workload``/``frame``/``file``/``sha256``, the
    :func:`~repro.trace.sources.envelope.characterize_capture` stream
    characterization, and the envelope verdict.
    """
    manifest = _envelope("ingest", config, _phases(0.0, wall_seconds))
    manifest.update(
        source=_jsonable(dict(source)),
        metrics=_jsonable(dict(metrics)),
        frames=_jsonable(list(frames)),
    )
    return manifest


# -- I/O ---------------------------------------------------------------------

def manifest_filename(manifest: Mapping[str, object]) -> str:
    """A stable, filesystem-safe name for a manifest."""
    kind = str(manifest.get("kind", "run"))
    if kind == "experiment":
        label = str(manifest.get("experiment", {}).get("id", "unknown"))
    elif kind == "sweep":
        label = str(manifest.get("sweep", {}).get("name", "unknown"))
    elif kind == "ingest":
        source = manifest.get("source") or {}
        label = (
            f"{source.get('kind', 'source')}_"
            f"{str(source.get('sha256', 'unknown'))[:12]}"
        )
    else:
        trace = manifest.get("trace") or {}
        label = f"{trace.get('name', 'trace')}_{manifest.get('policy', '')}"
    safe = re.sub(r"[^A-Za-z0-9._+-]+", "-", f"{kind}_{label}").strip("-")
    return f"{safe}.json"


def write_manifest(
    manifest: Mapping[str, object],
    directory: str,
    filename: Optional[str] = None,
) -> str:
    """Serialize ``manifest`` into ``directory``; returns the path."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ObservabilityError(
            f"cannot create manifest directory {directory!r}: {exc}"
        ) from exc
    path = os.path.join(directory, filename or manifest_filename(manifest))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path


def load_manifest(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot load manifest {path}: {exc}") from exc


# -- validation --------------------------------------------------------------

def validate_manifest(manifest: Mapping[str, object]) -> List[str]:
    """Schema-check a manifest; returns a list of problems (empty = ok)."""
    problems: List[str] = []
    if not isinstance(manifest, Mapping):
        return [f"manifest must be an object, got {type(manifest).__name__}"]
    for key in ENVELOPE_KEYS:
        if key not in manifest:
            problems.append(f"missing required key {key!r}")
    version = manifest.get("schema_version")
    if version is not None and version != SCHEMA_VERSION:
        problems.append(
            f"schema_version {version!r} != supported {SCHEMA_VERSION}"
        )
    kind = manifest.get("kind")
    if kind is not None and kind not in KIND_KEYS:
        problems.append(
            f"unknown kind {kind!r}; expected one of {sorted(KIND_KEYS)}"
        )
    for key in KIND_KEYS.get(kind, ()):
        if key not in manifest:
            problems.append(f"kind {kind!r} requires key {key!r}")
    phases = manifest.get("phases")
    if phases is not None:
        if not isinstance(phases, Mapping):
            problems.append("'phases' must be an object")
        else:
            for key in PHASE_KEYS:
                value = phases.get(key)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"phases.{key} must be a number, got {value!r}")
    metrics = manifest.get("metrics")
    if kind == "offline-sim" and isinstance(metrics, Mapping):
        for key in ("accesses", "hits", "misses", "per_stream"):
            if key not in metrics:
                problems.append(f"offline-sim metrics missing {key!r}")
    trace = manifest.get("trace")
    if kind in ("offline-sim", "frame-timing") and isinstance(trace, Mapping):
        if "accesses" not in trace:
            problems.append("trace section missing 'accesses'")
    events = manifest.get("events")
    if kind == "offline-sim" and isinstance(events, Mapping):
        for key in ("events", "sample_period", "per_stream", "sampled"):
            if key not in events:
                problems.append(f"events summary missing {key!r}")
    if kind == "sweep":
        problems.extend(_validate_sweep(manifest))
    if kind == "serve":
        problems.extend(_validate_serve(manifest))
    if kind == "ingest":
        problems.extend(_validate_ingest(manifest))
    if "parallel" in manifest:
        problems.extend(_validate_parallel(manifest["parallel"]))
    engine = manifest.get("engine")
    if engine is not None and engine not in ("reference", "fast"):
        problems.append(
            f"engine must be 'reference' or 'fast', got {engine!r}"
        )
    return problems


#: Numeric keys the optional ``parallel`` section must carry.
PARALLEL_KEYS = (
    "workers", "jobs", "wall_seconds", "serial_seconds_estimate", "speedup"
)


#: Numeric keys the ``sweep`` summary section must carry.
SWEEP_KEYS = ("total_jobs", "completed", "failed", "resumed")
#: Keys every entry of a sweep manifest's ``jobs`` list must carry.
SWEEP_JOB_KEYS = ("job", "status", "attempts", "executed_attempts", "resumed")


def _validate_sweep(manifest: Mapping[str, object]) -> List[str]:
    problems: List[str] = []
    sweep = manifest.get("sweep")
    if not isinstance(sweep, Mapping):
        problems.append(
            f"'sweep' must be an object, got {type(sweep).__name__}"
        )
    else:
        for key in SWEEP_KEYS:
            value = sweep.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(
                    f"sweep.{key} must be an integer, got {value!r}"
                )
    jobs = manifest.get("jobs")
    if not isinstance(jobs, list):
        problems.append(f"'jobs' must be a list, got {type(jobs).__name__}")
    else:
        for position, entry in enumerate(jobs):
            if not isinstance(entry, Mapping):
                problems.append(f"jobs[{position}] must be an object")
                continue
            for key in SWEEP_JOB_KEYS:
                if key not in entry:
                    problems.append(f"jobs[{position}] missing {key!r}")
    metrics = manifest.get("metrics")
    if metrics is not None and not isinstance(metrics, Mapping):
        problems.append("sweep 'metrics' must be an object of job payloads")
    return problems


#: Integer counters the ``serve`` summary section must carry.
SERVE_KEYS = (
    "requests", "submitted", "cache_hits", "coalesced", "computed", "failed"
)


def _validate_serve(manifest: Mapping[str, object]) -> List[str]:
    problems: List[str] = []
    serve = manifest.get("serve")
    if not isinstance(serve, Mapping):
        problems.append(
            f"'serve' must be an object, got {type(serve).__name__}"
        )
    else:
        for key in SERVE_KEYS:
            value = serve.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(
                    f"serve.{key} must be an integer, got {value!r}"
                )
    metrics = manifest.get("metrics")
    if metrics is not None and not isinstance(metrics, Mapping):
        problems.append("serve 'metrics' must be an object")
    return problems


#: Integer counters the ``ingest`` ``metrics`` section must carry.
INGEST_METRIC_KEYS = (
    "frames", "accesses", "unknown_tags", "envelope_violations"
)
#: Keys every entry of an ingest manifest's ``frames`` list must carry.
INGEST_FRAME_KEYS = (
    "workload", "frame", "file", "sha256", "characterization", "conformant"
)


def _validate_ingest(manifest: Mapping[str, object]) -> List[str]:
    problems: List[str] = []
    source = manifest.get("source")
    if not isinstance(source, Mapping):
        problems.append(
            f"'source' must be an object, got {type(source).__name__}"
        )
    elif "kind" not in source:
        problems.append("source section missing 'kind'")
    metrics = manifest.get("metrics")
    if not isinstance(metrics, Mapping):
        problems.append(
            f"ingest 'metrics' must be an object, got {type(metrics).__name__}"
        )
    else:
        for key in INGEST_METRIC_KEYS:
            value = metrics.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(
                    f"metrics.{key} must be an integer, got {value!r}"
                )
    frames = manifest.get("frames")
    if not isinstance(frames, list) or not frames:
        problems.append("'frames' must be a non-empty list")
    else:
        for position, entry in enumerate(frames):
            if not isinstance(entry, Mapping):
                problems.append(f"frames[{position}] must be an object")
                continue
            for key in INGEST_FRAME_KEYS:
                if key not in entry:
                    problems.append(f"frames[{position}] missing {key!r}")
            characterization = entry.get("characterization")
            if isinstance(characterization, Mapping):
                for key in ("accesses", "streams", "classes"):
                    if key not in characterization:
                        problems.append(
                            f"frames[{position}].characterization "
                            f"missing {key!r}"
                        )
    return problems


def _validate_parallel(section) -> List[str]:
    if not isinstance(section, Mapping):
        return [
            f"'parallel' must be an object, got {type(section).__name__}"
        ]
    problems = []
    for key in PARALLEL_KEYS:
        value = section.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"parallel.{key} must be a number, got {value!r}")
    per_job = section.get("per_job")
    if per_job is not None and not isinstance(per_job, list):
        problems.append("parallel.per_job must be a list")
    return problems


def check_manifest(manifest: Mapping[str, object]) -> None:
    """Raise :class:`ObservabilityError` if the manifest is invalid."""
    problems = validate_manifest(manifest)
    if problems:
        raise ObservabilityError(
            "invalid manifest: " + "; ".join(problems)
        )


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.obs FILE...`` — validate manifests and traces.

    Files are sniffed: JSON with a top-level ``traceEvents`` key is
    validated as a Chrome/Perfetto trace
    (:func:`repro.obs.traceexport.validate_trace`); everything else as a
    run manifest.
    """
    import argparse
    import sys

    from repro.obs.traceexport import is_trace, validate_trace

    parser = argparse.ArgumentParser(
        prog="repro.obs.manifest",
        description="Validate run-manifest and trace JSON files against "
        "their schemas.",
    )
    parser.add_argument("files", nargs="+", help="manifest/trace JSON paths")
    args = parser.parse_args(argv)
    failures = 0
    for path in args.files:
        try:
            document = load_manifest(path)
        except ObservabilityError as exc:
            print(f"FAIL {path}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if is_trace(document):
            problems = validate_trace(document)
            label = "trace"
        else:
            problems = validate_manifest(document)
            label = document.get("kind")
        if problems:
            failures += 1
            print(f"FAIL {path}:", file=sys.stderr)
            for problem in problems:
                print(f"  - {problem}", file=sys.stderr)
        else:
            print(f"ok   {path} ({label})")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
