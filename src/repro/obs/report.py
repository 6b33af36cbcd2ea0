"""gspc-report — one human-readable report for a run.

Merges the three artifact kinds a run leaves behind — JSON manifests
(:mod:`repro.obs.manifest`), sweep journals (:mod:`repro.sweep.journal`)
and Chrome trace files (:mod:`repro.obs.traceexport`) — into one
terminal report: per-run results (accesses, misses, hit rate, setup
and replay seconds, accesses/s; one row per sweep sim job plus a sweep
summary row), per-phase wall-time breakdown (count/total/mean/max),
per-policy throughput, worker utilization per pid, and the retry
timeline of a fault-tolerant sweep.

Inputs are sniffed, so everything composes::

    gspc-report results/small              # a sweep directory
    gspc-report out/                       # a directory of manifests
    gspc-report run.trace.json             # a Chrome trace file
    gspc-report results/small out/sim.json # any mix

Exit codes (docs/observability.md): 0 report printed, 1 nothing usable
found or unreadable input, 2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro import wal
from repro.analysis.tables import Table
from repro.errors import ObservabilityError, ReproError, WALError
from repro.obs import log as obs_log
from repro.obs.manifest import load_manifest, validate_manifest
from repro.obs.traceexport import is_trace, validate_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class RunData:
    """Everything the report found across all inputs."""

    def __init__(self) -> None:
        self.manifests: List[Tuple[str, Dict[str, object]]] = []
        self.traces: List[Tuple[str, Dict[str, object]]] = []
        #: (path, ordered verified journal records)
        self.journals: List[Tuple[str, List[Dict[str, object]]]] = []
        self.problems: List[str] = []

    @property
    def empty(self) -> bool:
        return not (self.manifests or self.traces or self.journals)


def _collect_file(path: str, data: RunData, explicit: bool = True) -> None:
    if path.endswith(".jsonl"):
        from repro.sweep.journal import verify

        try:
            records = wal.replay(path, validator=verify).records
        except WALError as exc:
            data.problems.append(str(exc))
        else:
            data.journals.append((path, records))
        return
    try:
        parsed = load_manifest(path)
    except ObservabilityError as exc:
        data.problems.append(str(exc))
        return
    if is_trace(parsed):
        issues = validate_trace(parsed)
        if issues:
            data.problems.append(f"{path}: invalid trace: {issues[0]}")
        else:
            data.traces.append((path, parsed))
        return
    if not explicit and not (isinstance(parsed, dict) and "kind" in parsed):
        # Directory scans hit unrelated JSON (a sweep's spec.json, say);
        # only flag files the user named themselves.
        return
    issues = validate_manifest(parsed)
    if issues:
        data.problems.append(f"{path}: invalid manifest: {issues[0]}")
    else:
        data.manifests.append((path, parsed))


def collect(paths: Sequence[str]) -> RunData:
    """Sniff every input path into manifests, traces and journals.

    A directory contributes its ``.json``/``.jsonl`` files (a sweep
    directory, or any directory of manifests and traces).  Each file is
    read once, however many inputs name it.
    """
    data = RunData()
    files: Dict[str, Tuple[str, bool]] = {}  # realpath -> (path, explicit)

    def add(path: str, explicit: bool) -> None:
        key = os.path.realpath(path)
        first, named = files.get(key, (path, False))
        files[key] = (first, named or explicit)

    for path in paths:
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                child = os.path.join(path, name)
                if name.endswith((".json", ".jsonl")) and os.path.isfile(child):
                    add(child, False)
        elif os.path.isfile(path):
            add(path, True)
        else:
            data.problems.append(f"no such file or directory: {path}")
    for path, explicit in files.values():
        _collect_file(path, data, explicit=explicit)
    return data


# -- sections -----------------------------------------------------------------

def _overview(data: RunData) -> Table:
    table = Table("Run overview", ["Source", "Kind", "Detail"])
    for path, manifest in data.manifests:
        kind = str(manifest.get("kind", "?"))
        if kind == "sweep":
            sweep = manifest.get("sweep") or {}
            detail = (
                f"{sweep.get('name', '?')}: "
                f"{sweep.get('completed', 0)}/{sweep.get('total_jobs', 0)} "
                f"jobs ok, {sweep.get('failed', 0)} failed, "
                f"{sweep.get('resumed', 0)} resumed"
            )
        elif kind == "experiment":
            experiment = manifest.get("experiment") or {}
            detail = f"{experiment.get('id', '?')}: {experiment.get('title', '')}"
        else:
            trace_meta = manifest.get("trace") or {}
            detail = (
                f"{manifest.get('policy', '?')} over "
                f"{trace_meta.get('accesses', '?')} accesses"
            )
        table.add_row(os.path.basename(path), f"manifest/{kind}", detail)
    for path, trace in data.traces:
        metadata = trace.get("metadata") or {}
        events = trace.get("traceEvents") or []
        spans = sum(1 for e in events if e.get("ph") == "X")
        pids = metadata.get("pids") or sorted(
            {e.get("pid") for e in events}
        )
        table.add_row(
            os.path.basename(path),
            "trace",
            f"run {metadata.get('run_id', '?')}: {spans} spans "
            f"across {len(pids)} process(es)",
        )
    for path, records in data.journals:
        oks = sum(1 for r in records if r.get("status") == "ok")
        table.add_row(
            os.path.basename(path),
            "journal",
            f"{len(records)} attempt record(s), {oks} ok",
        )
    return table


def _sig4(value: object) -> object:
    """Floats to four significant digits; other cells unchanged."""
    return f"{value:.4g}" if isinstance(value, float) else value


def _run_rows(manifest: Mapping[str, object]) -> List[List[object]]:
    """``[kind, run, accesses, misses, hit rate, setup s, replay s,
    accesses/s]`` for one manifest: one row per run, or for a sweep one
    row per sim job and then a whole-sweep summary row."""
    kind = str(manifest.get("kind", "?"))
    metrics = manifest.get("metrics") or {}
    phases = manifest.get("phases") or {}
    setup = phases.get("setup_seconds")
    rows: List[List[object]] = []
    if kind == "sweep":
        for job_id in sorted(metrics):
            payload = metrics[job_id] or {}
            job_metrics = payload.get("metrics") or {}
            rows.append([kind, job_id, payload.get("accesses"),
                         job_metrics.get("misses"),
                         job_metrics.get("hit_rate"), None, None, None])
        sweep = manifest.get("sweep") or {}
        run = (
            f"{sweep.get('name', '?')} "
            f"[{sweep.get('completed', 0)}/{sweep.get('total_jobs', 0)} ok, "
            f"{sweep.get('failed', 0)} failed]"
        )
        # The summary totals the jobs over the sweep's wall time, which
        # a sweep manifest keeps as its replay seconds.
        accesses, misses = (
            sum(int(row[column]) for row in rows
                if isinstance(row[column], (int, float))) or None
            for column in (2, 3)
        )
        hit_rate = setup = None
    elif kind == "experiment":
        run = (manifest.get("experiment") or {}).get("id", "?")
        accesses = misses = hit_rate = None
    else:
        trace_meta = manifest.get("trace") or {}
        run = f"{trace_meta.get('name', '?')}/{manifest.get('policy', '?')}"
        accesses = metrics.get("accesses")
        misses = metrics.get("misses")
        hit_rate = metrics.get("hit_rate")
    replay = float(phases.get("replay_seconds", 0.0) or 0.0)
    rows.append([
        kind,
        run,
        accesses,
        misses,
        hit_rate,
        setup,
        phases.get("replay_seconds"),
        accesses / replay if accesses and replay > 0 else None,
    ])
    return rows


def _runs(data: RunData) -> Optional[Table]:
    if not data.manifests:
        return None
    table = Table(
        "Per-run results",
        ["Source", "Kind", "Run", "Accesses", "Misses", "Hit rate",
         "Setup s", "Replay s", "Accesses/s"],
    )
    for path, manifest in data.manifests:
        for row in _run_rows(manifest):
            table.add_row(os.path.basename(path), *map(_sig4, row))
    return table


def _phase_rows(data: RunData) -> Dict[str, List[float]]:
    """path -> [count, total_seconds, max_seconds], traces preferred."""
    rows: Dict[str, List[float]] = {}

    def add(path: str, count: float, total: float, longest: float) -> None:
        entry = rows.setdefault(path, [0, 0.0, 0.0])
        entry[0] += count
        entry[1] += total
        entry[2] = max(entry[2], longest)

    for _, trace in data.traces:
        for event in trace.get("traceEvents") or []:
            if event.get("ph") != "X":
                continue
            args = event.get("args") or {}
            path = str(args.get("path", event.get("name", "?")))
            add(path, 1, float(event.get("dur", 0)) / 1e6,
                float(event.get("dur", 0)) / 1e6)
    if rows:
        return rows
    # No trace file: fall back to manifest span aggregates.
    for _, manifest in data.manifests:
        spans = (manifest.get("phases") or {}).get("spans") or {}
        if not isinstance(spans, Mapping):
            continue
        for path, entry in spans.items():
            if not isinstance(entry, Mapping):
                continue
            add(
                str(path),
                float(entry.get("count", 1)),
                float(entry.get("seconds", 0.0)),
                float(entry.get("max_seconds", entry.get("seconds", 0.0))),
            )
    return rows


def _phase_breakdown(data: RunData) -> Optional[Table]:
    rows = _phase_rows(data)
    if not rows:
        return None
    table = Table(
        "Phase breakdown",
        ["Phase", "Count", "Total s", "Mean s", "Max s (p100)"],
    )
    for path in sorted(rows, key=lambda p: -rows[p][1]):
        count, total, longest = rows[path]
        table.add_row(
            path,
            int(count),
            total,
            total / count if count else 0.0,
            longest,
        )
    return table


def _throughput(data: RunData) -> Optional[Table]:
    """Per-policy throughput from sweep manifests + journal seconds."""
    seconds_by_job: Dict[str, float] = {}
    for _, records in data.journals:
        for record in records:
            if record.get("status") == "ok":
                seconds_by_job.setdefault(
                    str(record["job"]), float(record.get("seconds", 0.0))
                )
    per_policy: Dict[Tuple[str, object], List[float]] = {}
    for _, manifest in data.manifests:
        if manifest.get("kind") != "sweep":
            continue
        metrics = manifest.get("metrics") or {}
        if not isinstance(metrics, Mapping):
            continue
        for job_id, payload in metrics.items():
            if not isinstance(payload, Mapping):
                continue
            key = (str(payload.get("policy", "?")), payload.get("llc_mb"))
            entry = per_policy.setdefault(key, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += float(payload.get("accesses", 0) or 0)
            entry[2] += seconds_by_job.get(str(job_id), 0.0)
    if not per_policy:
        return None
    table = Table(
        "Per-policy throughput",
        ["Policy", "LLC MB", "Jobs", "Accesses", "Seconds", "Accesses/s"],
    )
    for (policy, llc_mb), (jobs, accesses, seconds) in sorted(
        per_policy.items(), key=lambda item: (item[0][0], str(item[0][1]))
    ):
        table.add_row(
            policy,
            llc_mb,
            int(jobs),
            int(accesses),
            seconds,
            accesses / seconds if seconds > 0 else None,
        )
    return table


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for begin, end in sorted(intervals):
        if end > reach:
            total += end - max(begin, reach)
            reach = end
    return total


def _utilization(data: RunData) -> Optional[Table]:
    """Per-pid busy time from trace root spans vs. the run's wall span."""
    if not data.traces:
        return None
    spans: Dict[int, int] = {}
    roots: Dict[int, List[Tuple[float, float]]] = {}
    start: Optional[float] = None
    end: Optional[float] = None
    names: Dict[int, str] = {}
    for _, trace in data.traces:
        for event in trace.get("traceEvents") or []:
            pid = int(event.get("pid", 0))
            if event.get("ph") == "M" and event.get("name") == "process_name":
                names[pid] = str((event.get("args") or {}).get("name", ""))
                continue
            if event.get("ph") != "X":
                continue
            ts = float(event.get("ts", 0))
            dur = float(event.get("dur", 0))
            start = ts if start is None else min(start, ts)
            end = ts + dur if end is None else max(end, ts + dur)
            args = event.get("args") or {}
            path = str(args.get("path", event.get("name", "?")))
            spans[pid] = spans.get(pid, 0) + 1
            # Nested spans lie inside their root; root spans of one pid
            # can overlap each other (an orchestrator's attempt spans
            # run inside its sweep span), so busy time is their union.
            if "/" not in path:
                roots.setdefault(pid, []).append((ts, ts + dur))
    if not spans or start is None or end is None:
        return None
    wall_us = max(end - start, 1e-9)
    table = Table(
        "Worker utilization",
        ["Process", "Pid", "Spans", "Busy s", "Utilization"],
    )
    for pid in sorted(spans):
        busy_us = _union_length(roots.get(pid, []))
        table.add_row(
            names.get(pid, f"worker {pid}"),
            pid,
            spans[pid],
            busy_us / 1e6,
            f"{100.0 * busy_us / wall_us:.1f}%",
        )
    table.notes.append(
        f"wall span {wall_us / 1e6:.3f}s; busy time is the union of each "
        "process's root spans"
    )
    return table


def _retry_timeline(data: RunData) -> Optional[Table]:
    records = [record for _, journal in data.journals for record in journal]
    if not records:
        return None
    base: Optional[float] = None
    for record in records:
        unix = record.get("unix")
        if isinstance(unix, (int, float)):
            base = unix if base is None else min(base, unix)
    table = Table(
        "Attempt timeline", ["T+", "Job", "Attempt", "Status", "Detail"]
    )
    for record in records:
        unix = record.get("unix")
        offset = (
            f"{float(unix) - base:+.2f}s"
            if base is not None and isinstance(unix, (int, float))
            else "-"
        )
        status = str(record.get("status", "?"))
        if status == "ok":
            detail = f"{float(record.get('seconds', 0.0)):.2f}s"
        else:
            detail = (
                f"{record.get('kind', '?')}: {record.get('error', '')}"[:60]
            )
        table.add_row(
            offset,
            str(record.get("job", "?")),
            int(record.get("attempt", 0)),
            status,
            detail,
        )
    return table


def render_report(data: RunData) -> str:
    sections = [_overview(data)]
    for section in (
        _runs(data),
        _phase_breakdown(data),
        _throughput(data),
        _utilization(data),
        _retry_timeline(data),
    ):
        if section is not None:
            sections.append(section)
    return "\n\n".join(section.render() for section in sections)


# -- CLI ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspc-report",
        description=(
            "Merge run manifests, sweep journals and trace files into one "
            "readable run report."
        ),
    )
    parser.add_argument(
        "inputs",
        nargs="+",
        metavar="PATH",
        help="sweep directory, manifest directory, manifest/trace JSON "
        "file, or journal JSONL file",
    )
    parser.add_argument(
        "--out",
        metavar="FILE",
        help="also write the rendered report to FILE",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="logging level (default: $REPRO_LOG_LEVEL or WARNING)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        obs_log.configure(args.log_level)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    data = collect(args.inputs)
    for problem in data.problems:
        print(f"warning: {problem}", file=sys.stderr)
    if data.empty:
        print("error: no manifests, traces or journals found", file=sys.stderr)
        return EXIT_RUNTIME
    report = render_report(data)
    print(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        print(f"\nwrote {args.out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
