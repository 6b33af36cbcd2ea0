"""Trace exporters: Chrome/Perfetto ``trace_event`` JSON and a
Prometheus-style text metrics dump.

:func:`build_chrome_trace` turns the plain span-event dicts a
:class:`~repro.obs.spans.SpanRecorder` buffered — possibly gathered
from many processes — into one Chrome ``trace_event`` JSON object that
loads directly in ``chrome://tracing`` and https://ui.perfetto.dev:
one track per pid, complete (``"ph": "X"``) events, trace context
surfaced in each event's ``args`` and the run id in top-level
``metadata``.

:func:`validate_trace` schema-checks such a file (CI runs it through
``python -m repro.obs FILE``, which sniffs trace files vs. manifests),
and :func:`prometheus_text` renders a
:meth:`~repro.obs.metrics.MetricsRegistry.snapshot` as Prometheus
exposition text for scrape-style consumption.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ObservabilityError

#: Trace-file schema version (ours, carried in ``metadata``).
TRACE_VERSION = 1

#: Event phases the validator accepts (complete spans + metadata).
KNOWN_PHASES = ("X", "M")

MICROS = 1e6


def build_chrome_trace(
    events: Iterable[Mapping[str, object]],
    run_id: str,
    process_names: Optional[Mapping[int, str]] = None,
    extra_metadata: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """One merged Chrome ``trace_event`` JSON object for a run.

    ``events`` are span-event dicts (``ts`` in unix seconds, ``dur`` in
    seconds — see :mod:`repro.obs.tracing`); timestamps are rebased to
    the earliest event so the timeline starts at zero.  ``process_names``
    labels tracks (e.g. the orchestrator pid); unnamed pids become
    ``"worker <pid>"``.
    """
    events = [dict(event) for event in events]
    base = min((float(e["ts"]) for e in events), default=0.0)
    pids = sorted({int(e.get("pid", 0)) for e in events})
    names = dict(process_names or {})
    trace_events: List[Dict[str, object]] = []
    for pid in pids:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": pid,
                "args": {"name": names.get(pid, f"worker {pid}")},
            }
        )
    for event in sorted(
        events, key=lambda e: (float(e["ts"]), -float(e["dur"]))
    ):
        ctx = event.get("ctx") or {}
        args: Dict[str, object] = {"path": event.get("path", event["name"])}
        if isinstance(ctx, Mapping):
            args.update(ctx)
        extra_args = event.get("args")
        if isinstance(extra_args, Mapping):
            args.update(extra_args)
        pid = int(event.get("pid", 0))
        trace_events.append(
            {
                "name": str(event["name"]),
                "cat": "span",
                "ph": "X",
                "ts": round((float(event["ts"]) - base) * MICROS, 3),
                "dur": round(float(event["dur"]) * MICROS, 3),
                "pid": pid,
                "tid": int(event.get("tid", pid)),
                "args": args,
            }
        )
    metadata: Dict[str, object] = {
        "trace_version": TRACE_VERSION,
        "run_id": run_id,
        "base_unix": base,
        "pids": pids,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return {
        "displayTimeUnit": "ms",
        "metadata": metadata,
        "traceEvents": trace_events,
    }


def write_trace_file(trace: Mapping[str, object], path: str) -> str:
    """Serialize a built trace to ``path``; returns the path."""
    directory = os.path.dirname(path)
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:
            raise ObservabilityError(
                f"cannot create trace directory {directory!r}: {exc}"
            ) from exc
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=None, separators=(",", ":"))
        handle.write("\n")
    return path


def load_trace_file(path: str) -> Dict[str, object]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot load trace {path}: {exc}") from exc


def is_trace(data: object) -> bool:
    """Sniff: does this parsed JSON look like a Chrome trace file?"""
    return isinstance(data, Mapping) and "traceEvents" in data


def validate_trace(data: object) -> List[str]:
    """Schema-check a Chrome trace object; returns problems (empty = ok).

    Checks the structural contract Perfetto/chrome://tracing need
    (phases, numeric non-negative ``ts``/``dur``, pid/tid) plus ours:
    every complete event that carries a ``run_id`` arg must agree with
    the trace-level ``metadata.run_id`` — one file, one run.
    """
    if not isinstance(data, Mapping):
        return [f"trace must be an object, got {type(data).__name__}"]
    problems: List[str] = []
    events = data.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    metadata = data.get("metadata")
    run_id = None
    if metadata is not None:
        if not isinstance(metadata, Mapping):
            problems.append("'metadata' must be an object")
        else:
            run_id = metadata.get("run_id")
    for position, event in enumerate(events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, Mapping):
            problems.append(f"{where} must be an object")
            continue
        phase = event.get("ph")
        if phase not in KNOWN_PHASES:
            problems.append(
                f"{where}.ph must be one of {KNOWN_PHASES}, got {phase!r}"
            )
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where} needs a non-empty string 'name'")
        for key in ("pid", "tid"):
            value = event.get(key)
            if not isinstance(value, int) or isinstance(value, bool):
                problems.append(f"{where}.{key} must be an integer")
        if phase != "X":
            continue
        for key in ("ts", "dur"):
            value = event.get(key)
            if (
                not isinstance(value, (int, float))
                or isinstance(value, bool)
                or value < 0
            ):
                problems.append(
                    f"{where}.{key} must be a non-negative number, "
                    f"got {value!r}"
                )
        args = event.get("args")
        if args is not None and not isinstance(args, Mapping):
            problems.append(f"{where}.args must be an object")
        elif isinstance(args, Mapping) and run_id is not None:
            event_run = args.get("run_id")
            if event_run is not None and event_run != run_id:
                problems.append(
                    f"{where} belongs to run {event_run!r}, "
                    f"but the trace is for run {run_id!r}"
                )
    return problems


def check_trace(data: object) -> None:
    """Raise :class:`ObservabilityError` if the trace is invalid."""
    problems = validate_trace(data)
    if problems:
        raise ObservabilityError("invalid trace: " + "; ".join(problems))


# -- Prometheus-style text dump ----------------------------------------------

_METRIC_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str = "repro_") -> str:
    mangled = _METRIC_NAME_RE.sub("_", name)
    if not mangled or not (mangled[0].isalpha() or mangled[0] in "_:"):
        mangled = "_" + mangled
    return prefix + mangled


def _prom_labels(labels: Optional[Mapping[str, object]]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{str(value)}"' for key, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _merge(labels, extra):
    merged = dict(labels or {})
    merged.update(extra)
    return merged


def prometheus_text(
    snapshot: Mapping[str, Mapping[str, object]],
    labels: Optional[Mapping[str, object]] = None,
) -> str:
    """Render a metrics snapshot as Prometheus exposition text.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output (grouped
    ``counters``/``gauges``/``histograms``); ``labels`` (e.g. the run
    id) are attached to every sample.  Metric names are mangled to the
    Prometheus charset under a ``repro_`` prefix.
    """
    lines: List[str] = []
    label_text = _prom_labels(labels)
    for name, value in sorted(dict(snapshot.get("counters", {})).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{label_text} {value}")
    for name, value in sorted(dict(snapshot.get("gauges", {})).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom}{label_text} {value}")
    for name, hist in sorted(dict(snapshot.get("histograms", {})).items()):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        buckets = hist.get("buckets", {}) if isinstance(hist, Mapping) else {}
        for bound, count in buckets.items():
            le = "+Inf" if bound == "inf" else str(bound)[len("le_"):]
            cumulative += int(count)
            bucket_labels = _prom_labels(_merge(labels, {"le": le}))
            lines.append(f"{prom}_bucket{bucket_labels} {cumulative}")
        lines.append(f"{prom}_sum{label_text} {hist.get('sum', 0.0)}")
        lines.append(f"{prom}_count{label_text} {hist.get('count', 0)}")
    return "\n".join(lines) + "\n"


def write_metrics_text(
    snapshot: Mapping[str, Mapping[str, object]],
    path: str,
    labels: Optional[Mapping[str, object]] = None,
) -> str:
    """Write :func:`prometheus_text` output to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(snapshot, labels))
    return path


__all__ = [
    "TRACE_VERSION",
    "build_chrome_trace",
    "check_trace",
    "is_trace",
    "load_trace_file",
    "prometheus_text",
    "validate_trace",
    "write_metrics_text",
    "write_trace_file",
]
