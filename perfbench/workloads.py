"""The benchmark's three workloads, each a closed loop in one process.

* ``paper-figs`` — ``gspc-experiments --all --csv DIR`` (all registered
  experiments, one frame per Table-1 app, ``--jobs 1``).  The only
  workload that runs the GPU timing models; it also shares (frame,
  policy) results across experiments through the in-process cache.
* ``sweep-grid`` — ``gspc-sweep --jobs 2`` over the 8 fast-covered
  policies x 4 LLC sizes x 12 apps.  Replay-bound and orchestrated, with
  no timing model, characterization or observer: the control for those.
* ``sim-telemetry`` — ``gspc-sim --metrics-out DIR`` with the same 8
  policies, one call per app through ``repro.cli.main``.  The observer
  forces the reference engine, so this is where observable fast kernels
  would show, with ``sweep-grid`` as its control.

The seed picks which of each app's 4-5 frames every workload replays
(seed 0: frame 0 everywhere); the program only ever sees those frames.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import glob
import importlib
import json
import os
import random
import re
from typing import List, Tuple

from checks import PassOutput, digest

Frames = List[Tuple[str, int]]

#: The fast-covered golden policies (sweep-grid and sim-telemetry).
POLICIES = ("nru", "lru", "srrip", "drrip", "gspztc", "gspztc+tse", "gspc", "gspc+ucd")
SWEEP_LLC_MB = (1, 4, 8, 16)
SWEEP_WORKERS = 2
#: Linear frame scales: paper-figs runs every experiment, so it takes a
#: smaller frame to keep one pass near the others' length.
PAPER_SCALE = 0.03125
SWEEP_SCALE = 0.05
SIM_SCALE = 0.0625
#: Manifest sections that carry simulated results; ``engine`` is
#: dropped at any depth (the rule of benchmarks/diff_manifest_metrics.py)
#: so an engine switch does not read as a changed result.
MANIFEST_KEYS = ("policy", "trace", "metrics", "extras", "config")


def frames_for_seed(seed: int) -> Frames:
    """One (app, frame) per Table-1 app; seed 0 picks frame 0 for all."""
    from repro.workloads.apps import ALL_APPS

    return [
        (
            app.abbrev,
            0 if seed == 0 else random.Random(f"{seed}:{app.abbrev}").randrange(app.num_frames),
        )
        for app in ALL_APPS
    ]


@contextlib.contextmanager
def request(tracer, name: str):
    """A benchmark-side span marking one operation's request id."""
    if tracer is None:
        yield
        return
    span = tracer.open("bench.request", request=name)
    try:
        yield
    finally:
        tracer.close(span)


def _frame_list_config(scale: float, cache_dir: str, frames: Frames):
    """An ExperimentConfig whose frame list is exactly ``frames``."""
    from repro.experiments.common import ExperimentConfig

    @dataclasses.dataclass(frozen=True)
    class FrameListConfig(ExperimentConfig):
        frame_list: Tuple[Tuple[str, int], ...] = ()

        def frames(self):
            source = self.trace_source()
            return [source.frame_spec(app, index) for app, index in self.frame_list]

    return FrameListConfig(
        scale=scale, frames_per_app=None, cache_dir=cache_dir, frame_list=tuple(frames)
    )


def _fill_cache(scale: float, cache_dir: str, frames: Frames) -> None:
    from repro.experiments.common import frame_trace

    config = _frame_list_config(scale, cache_dir, frames)
    for spec in config.frames():
        frame_trace(spec, config)


class PaperFigs:
    name = "paper-figs"

    def import_modules(self) -> None:
        from repro.experiments.common import all_experiments

        importlib.import_module("repro.experiments.runner")
        all_experiments()

    def setup(self, cache_dir: str, frames: Frames) -> None:
        _fill_cache(PAPER_SCALE, cache_dir, frames)

    def run_pass(self, cache_dir: str, out_dir: str, frames: Frames, tracer=None) -> PassOutput:
        from repro.experiments.common import all_experiments, clear_result_caches
        from repro.experiments.runner import run_experiments

        # A second in-process pass would otherwise replay from the
        # in-process result caches instead of simulating.
        clear_result_caches()
        config = _frame_list_config(PAPER_SCALE, cache_dir, frames)
        csv_dir = os.path.join(out_dir, "csv")
        output = PassOutput()
        with _quiet(out_dir):
            for experiment_id in sorted(all_experiments()):
                with request(tracer, experiment_id):
                    try:
                        code = run_experiments([experiment_id], config, csv_dir)
                    except Exception as exc:  # one failed op; keep going
                        output.failures[experiment_id] = f"{type(exc).__name__}: {exc}"
                        continue
                if code != 0:
                    output.failures[experiment_id] = f"exit code {code}"
                    continue
                pattern = re.compile(rf"^{re.escape(experiment_id)}_(\d+)\.csv$")
                tables = sorted(
                    (int(match.group(1)), match.group(0))
                    for match in map(pattern.match, os.listdir(csv_dir))
                    if match
                )
                output.digests[experiment_id] = digest(
                    b"".join(_read(os.path.join(csv_dir, name)) for _, name in tables)
                )
        return output


class SweepGrid:
    name = "sweep-grid"

    def import_modules(self) -> None:
        for module in ("repro.sweep.exec", "repro.sweep.report", "repro.sweep.spec"):
            importlib.import_module(module)

    def setup(self, cache_dir: str, frames: Frames) -> None:
        _fill_cache(SWEEP_SCALE, cache_dir, frames)

    def run_pass(self, cache_dir: str, out_dir: str, frames: Frames, tracer=None) -> PassOutput:
        from repro.sweep import report
        from repro.sweep.exec import ProcessLauncher, RetryPolicy, SweepRunner
        from repro.sweep.journal import Journal, journal_path
        from repro.sweep.spec import SweepJob, SweepSpec, save_spec, spec_path

        spec = SweepSpec(
            name=self.name,
            policies=POLICIES,
            llc_mb=SWEEP_LLC_MB,
            apps=tuple(app for app, _ in frames),
            scale=SWEEP_SCALE,
        )
        # The plan of repro.sweep.spec.expand, over the seed's frames
        # instead of each app's first frames_per_app frames.
        ordered = sorted(frames)
        traces = [SweepJob("trace", app, index) for app, index in ordered]
        sims = sorted(
            (
                SweepJob("sim", app, index, policy, llc_mb, deps=(f"trace:{app}:f{index}",))
                for app, index in ordered
                for llc_mb in SWEEP_LLC_MB
                for policy in POLICIES
            ),
            key=lambda job: (job.app, job.frame_index, job.llc_mb, job.policy),
        )
        jobs = traces + sims
        sweep_dir = os.path.join(out_dir, "sweep")
        os.makedirs(sweep_dir)
        retry = RetryPolicy()
        with _quiet(out_dir):
            with request(tracer, self.name):
                save_spec(spec, spec_path(sweep_dir))
                launcher = ProcessLauncher(spec, cache_dir, os.path.join(sweep_dir, "tmp"))
                with Journal(journal_path(sweep_dir)) as journal:
                    outcome = SweepRunner(
                        jobs, launcher, journal, workers=SWEEP_WORKERS, retry=retry,
                        progress=print,
                    ).run()
                report.write_reports(
                    sweep_dir, spec, jobs, outcome,
                    workers=SWEEP_WORKERS, timeout=None, retry=retry,
                )
        rows = {}
        with open(os.path.join(sweep_dir, report.RESULTS_FILENAME), newline="") as handle:
            for row in csv.DictReader(handle):
                row.pop("engine")
                rows[f"sim:{row['app']}:f{row['frame']}:{row['policy']}:llc{row['llc_mb']}"] = row
        output = PassOutput()
        for job in jobs:
            failure = outcome.failures.get(job.job_id)
            if failure is not None:
                output.failures[job.job_id] = f"{failure['kind']}: {failure['error']}"
            elif job.kind == "trace":
                output.digests[job.job_id] = None
            elif job.job_id in rows:
                output.digests[job.job_id] = digest(rows[job.job_id])
            else:
                output.failures[job.job_id] = "no results.csv row"
        return output


class SimTelemetry:
    name = "sim-telemetry"

    def import_modules(self) -> None:
        # repro.obs.events is imported lazily by every --metrics-out replay.
        for module in ("repro.cli", "repro.obs.events"):
            importlib.import_module(module)

    def setup(self, cache_dir: str, frames: Frames) -> None:
        """gspc-sim synthesizes its frame on every call: nothing to cache."""

    def run_pass(self, cache_dir: str, out_dir: str, frames: Frames, tracer=None) -> PassOutput:
        from repro.cli import main

        output = PassOutput()
        with _quiet(out_dir):
            for app, index in frames:
                metrics_dir = os.path.join(out_dir, f"{app}_f{index}")
                argv = [
                    "--app", app, "--frame", str(index), "--scale", str(SIM_SCALE),
                    "--policies", *POLICIES, "--metrics-out", metrics_dir,
                ]
                ops = [f"{app}:f{index}:{policy}" for policy in POLICIES]
                with request(tracer, f"gspc-sim:{app}:f{index}"):
                    try:
                        code = main(argv)
                    except Exception as exc:  # the call's results all fail
                        code = f"{type(exc).__name__}: {exc}"
                if code != 0:
                    output.failures.update((op, f"gspc-sim: {code}") for op in ops)
                    continue
                for path in glob.glob(os.path.join(metrics_dir, "offline-sim_*.json")):
                    with open(path, encoding="utf-8") as handle:
                        manifest = json.load(handle)
                    op = f"{app}:f{index}:{manifest['policy']}"
                    output.digests[op] = digest(
                        {key: _strip_engine(manifest.get(key)) for key in MANIFEST_KEYS}
                    )
                for op in ops:
                    if op not in output.digests:
                        output.failures[op] = "no manifest"
        return output


WORKLOADS = {w.name: w for w in (PaperFigs(), SweepGrid(), SimTelemetry())}


def _strip_engine(value):
    if isinstance(value, dict):
        return {key: _strip_engine(item) for key, item in value.items() if key != "engine"}
    if isinstance(value, list):
        return [_strip_engine(item) for item in value]
    return value


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


@contextlib.contextmanager
def _quiet(out_dir: str):
    """Send the CLIs' stdout to a log file, keeping ours for results."""
    with open(os.path.join(out_dir, "stdout.log"), "a", encoding="utf-8") as log:
        with contextlib.redirect_stdout(log):
            yield
