"""Where the traced run wraps the program, and the per-layer metrics.

Layers are named by module.  Each wrapper goes on a whole-call entry
point; ``after`` callbacks keep the counters.  Sweep workers are forked
per attempt and leave through ``os._exit``, so each one writes its spans
to ``spans_dir`` before its job returns, and the parent merges them.
"""

from __future__ import annotations

import dataclasses
import os
from typing import Dict

from checks import checked
from tracer import BENCH_LAYER, Patches, Tracer, attribute, traced


def install_checks(patches: Patches) -> None:
    """Conservation check on every ``simulate_trace`` result (all runs)."""
    from repro.sim import offline

    original = offline.simulate_trace
    patches.everywhere(original, checked(original))


def install(tracer: Tracer, patches: Patches, spans_dir: str) -> None:
    """Wrap every layer's entry points; call after the workload's imports."""
    from repro.analysis import characterize, tables
    from repro.experiments import common
    from repro.fastsim import decode, engine
    from repro.gpu.detailed import DetailedGPUSimulator
    from repro.gpu.timing import FrameTimingSimulator
    from repro.obs import manifest
    from repro.sim import offline
    from repro.sweep import exec as sweep_exec, report
    from repro.sweep.journal import Journal
    from repro.trace import stats
    from repro.trace.sources.synthetic import SyntheticSource
    from repro.workloads import replay, sequence

    counts = tracer.counts

    def counting(name, accesses=None):
        def after(span, args, kwargs, result):
            counts[name] += 1
            if accesses is not None:
                counts[accesses] += len(result)

        return after

    def wrap_everywhere(func, name, after=None):
        patches.everywhere(func, traced(tracer, func, name, after))

    def wrap_method(cls, attr, name, after=None):
        patches.set(cls, attr, traced(tracer, getattr(cls, attr), name, after))

    # workloads: frame synthesis, command capture/replay, sequences.
    synth = counting("workloads.calls", accesses="workloads.accesses")
    wrap_method(SyntheticSource, "frame_trace", "workloads.frame", synth)
    wrap_everywhere(replay.capture_frame_commands, "workloads.capture",
                    counting("workloads.calls"))
    wrap_everywhere(replay.replay_command_list, "workloads.replay", synth)
    wrap_everywhere(sequence.generate_sequence_trace, "workloads.sequence", synth)

    # trace: the frame-trace cache's I/O.
    for attr, name in (("load_trace", "trace.load"), ("save_trace", "trace.save")):
        patches.set(common, attr, traced(
            tracer, getattr(common, attr), name, counting(name + "s")
        ))

    # fastsim: decode and the kernels (the rest of fast_simulate_trace).
    def fast_after(span, args, kwargs, result):
        counts["fastsim.calls"] += 1
        counts["fastsim.accesses"] += result.accesses

    wrap_everywhere(engine.fast_simulate_trace, "fastsim.kernel", fast_after)
    wrap_everywhere(decode.decode_trace, "fastsim.decode")

    # sim: simulate_trace; its self time is the reference engine unless
    # the call went down the fast path.  install_checks already wrapped
    # it, so the conservation check runs inside this span.
    def sim_after(span, args, kwargs, result):
        counts["sim.calls"] += 1
        if kwargs.get("observer") is not None or (len(args) > 4 and args[4] is not None):
            counts["sim.observed_calls"] += 1
        if "fastsim.kernel" in span["kids"]:
            span["name"] = "sim.fast"
            counts["sim.fast_calls"] += 1
        else:
            span["name"] = "sim.ref"
            counts["sim.ref_calls"] += 1
            counts["sim.ref_accesses"] += result.accesses

    wrap_everywhere(offline.simulate_trace, "sim.ref", sim_after)

    # gpu: the two timing models, including their own LLC replay.
    for cls, kind in ((FrameTimingSimulator, "windowed"), (DetailedGPUSimulator, "detailed")):
        def gpu_after(span, args, kwargs, result, kind=kind):
            counts[f"gpu.{kind}_calls"] += 1
            counts["gpu.accesses"] += len(args[1] if len(args) > 1 else kwargs["trace"])

        wrap_method(cls, "run", f"gpu.{kind}", gpu_after)

    # analysis: characterization (minus its replay), stats, tables.
    wrap_everywhere(characterize.characterize_frame, "analysis.characterize",
                    counting("analysis.characterize_calls"))
    wrap_everywhere(stats.compute_trace_stats, "analysis.stats")
    wrap_method(tables.Table, "render", "analysis.table")
    wrap_method(tables.Table, "to_csv", "analysis.table")

    # experiments: each registered run, and the in-process result cache
    # (a call that needed no child span was a hit).
    for key, experiment in list(common.EXPERIMENTS.items()):
        patches.set_item(common.EXPERIMENTS, key, dataclasses.replace(
            experiment,
            run=traced(tracer, experiment.run, "experiments.run",
                       request=lambda args, kwargs, key=key: key),
        ))

    def result_after(span, args, kwargs, result):
        counts["experiments.results"] += 1
        if not span["kids"]:
            counts["experiments.result_hits"] += 1

    wrap_everywhere(common.frame_result, "experiments.result", result_after)
    wrap_everywhere(common.frame_characterization, "experiments.result", result_after)

    # sweep: the scheduler, per-attempt processes, the journal, reports.
    def run_after(span, args, kwargs, outcome):
        runner = args[0]
        counts["sweep.jobs"] += len(runner.jobs)
        counts["sweep.failed_jobs"] += len(outcome.failures)
        counts["sweep.slot_seconds"] += runner.workers * (span["end"] - span["start"])

    wrap_method(sweep_exec.SweepRunner, "run", "sweep.run", run_after)
    wrap_method(Journal, "append", "sweep.journal")
    wrap_everywhere(report.write_reports, "sweep.reports")

    attempts: Dict[int, dict] = {}
    launcher = sweep_exec.ProcessLauncher
    start, poll, cancel = launcher.start, launcher.poll, launcher.cancel

    def traced_start(self, job, index, attempt):
        span = tracer.detached("sweep.attempt", request=f"{job.job_id}#{attempt}")
        tracer.fork_parent = span  # the worker forks inside start()
        try:
            handle = start(self, job, index, attempt)
        finally:
            tracer.fork_parent = None
        attempts[id(handle)] = span
        counts["sweep.attempts"] += 1
        return handle

    def traced_poll(self, handle):
        result = poll(self, handle)
        if result is not None:
            tracer.close(attempts.pop(id(handle)))
        return result

    def traced_cancel(self, handle):
        cancel(self, handle)
        span = attempts.pop(id(handle), None)
        if span is not None:
            tracer.close(span)

    patches.set(launcher, "start", traced_start)
    patches.set(launcher, "poll", traced_poll)
    patches.set(launcher, "cancel", traced_cancel)

    worker = sweep_exec.run_job_in_worker

    def traced_worker(payload, out_path):
        tracer.reset_for_child()
        span = tracer.open("sweep.job")
        try:
            worker(payload, out_path)
        finally:
            tracer.close(span)
            tracer.dump(os.path.join(spans_dir, f"worker-{os.getpid()}.jsonl"))

    patches.set(sweep_exec, "run_job_in_worker", traced_worker)

    # obs: run manifests.
    wrap_everywhere(manifest.sim_manifest, "obs.manifest")
    wrap_everywhere(manifest.write_manifest, "obs.manifest", counting("obs.manifests"))


#: (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("workloads.calls", "count", "lower"),
    ("workloads.accesses", "count", "lower"),
    ("workloads.self_s", "s", "lower"),
    ("workloads.ns_per_access", "ns", "lower"),
    ("trace.loads", "count", "lower"),
    ("trace.load_s", "s", "lower"),
    ("trace.saves", "count", "lower"),
    ("trace.save_s", "s", "lower"),
    ("trace.cache_hit_ratio", "ratio", "higher"),
    ("fastsim.calls", "count", "higher"),
    ("fastsim.accesses", "count", "higher"),
    ("fastsim.decode_s", "s", "lower"),
    ("fastsim.kernel_s", "s", "lower"),
    ("fastsim.ns_per_access", "ns", "lower"),
    ("sim.ref_calls", "count", "lower"),
    ("sim.ref_accesses", "count", "lower"),
    ("sim.ref_s", "s", "lower"),
    ("sim.ref_ns_per_access", "ns", "lower"),
    ("sim.observed_calls", "count", "lower"),
    ("sim.fast_path_ratio", "ratio", "higher"),
    ("gpu.windowed_calls", "count", "lower"),
    ("gpu.windowed_s", "s", "lower"),
    ("gpu.detailed_calls", "count", "lower"),
    ("gpu.detailed_s", "s", "lower"),
    ("gpu.accesses", "count", "lower"),
    ("gpu.ns_per_access", "ns", "lower"),
    ("analysis.characterize_calls", "count", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.result_cache_hit_ratio", "ratio", "higher"),
    ("sweep.jobs", "count", "lower"),
    ("sweep.attempts", "count", "lower"),
    ("sweep.failed_jobs", "count", "lower"),
    ("sweep.job_s", "s", "lower"),
    ("sweep.overhead_s", "s", "lower"),
    ("sweep.worker_util", "ratio", "higher"),
    ("sweep.journal_s", "s", "lower"),
    ("obs.manifests", "count", "lower"),
    ("obs.manifest_s", "s", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Wall seconds per program layer (span-name prefix)."""
    shares: Dict[str, float] = {}
    for name, seconds in attribute(tracer.spans).items():
        layer = name.split(".")[0]
        if layer != BENCH_LAYER:
            shares[layer] = shares.get(layer, 0.0) + seconds
    return shares


def metrics(tracer: Tracer, traced_wall: float, untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``*_s`` metrics of a layer are its wall-clock share; ``sweep.job_s``,
    ``sweep.overhead_s`` and ``sweep.journal_s`` are busy seconds summed
    over processes.
    """
    c = tracer.counts
    shares = attribute(tracer.spans)
    layers = layer_shares(tracer)
    busy: Dict[str, float] = {}
    for span in tracer.spans:
        busy[span["name"]] = busy.get(span["name"], 0.0) + span["end"] - span["start"]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    def ns(seconds, accesses):
        return 1e9 * ratio(seconds, accesses)

    fast_s = shares.get("fastsim.decode", 0.0) + shares.get("fastsim.kernel", 0.0)
    gpu_s = shares.get("gpu.windowed", 0.0) + shares.get("gpu.detailed", 0.0)
    attempt_s = busy.get("sweep.attempt", 0.0)
    values = {
        "workloads.calls": c["workloads.calls"],
        "workloads.accesses": c["workloads.accesses"],
        "workloads.self_s": layers.get("workloads", 0.0),
        "workloads.ns_per_access": ns(layers.get("workloads", 0.0), c["workloads.accesses"]),
        "trace.loads": c["trace.loads"],
        "trace.load_s": shares.get("trace.load", 0.0),
        "trace.saves": c["trace.saves"],
        "trace.save_s": shares.get("trace.save", 0.0),
        "trace.cache_hit_ratio": ratio(c["trace.loads"], c["trace.loads"] + c["trace.saves"]),
        "fastsim.calls": c["fastsim.calls"],
        "fastsim.accesses": c["fastsim.accesses"],
        "fastsim.decode_s": shares.get("fastsim.decode", 0.0),
        "fastsim.kernel_s": shares.get("fastsim.kernel", 0.0),
        "fastsim.ns_per_access": ns(fast_s, c["fastsim.accesses"]),
        "sim.ref_calls": c["sim.ref_calls"],
        "sim.ref_accesses": c["sim.ref_accesses"],
        "sim.ref_s": shares.get("sim.ref", 0.0),
        "sim.ref_ns_per_access": ns(shares.get("sim.ref", 0.0), c["sim.ref_accesses"]),
        "sim.observed_calls": c["sim.observed_calls"],
        "sim.fast_path_ratio": ratio(c["sim.fast_calls"], c["sim.calls"]),
        "gpu.windowed_calls": c["gpu.windowed_calls"],
        "gpu.windowed_s": shares.get("gpu.windowed", 0.0),
        "gpu.detailed_calls": c["gpu.detailed_calls"],
        "gpu.detailed_s": shares.get("gpu.detailed", 0.0),
        "gpu.accesses": c["gpu.accesses"],
        "gpu.ns_per_access": ns(gpu_s, c["gpu.accesses"]),
        "analysis.characterize_calls": c["analysis.characterize_calls"],
        "analysis.self_s": layers.get("analysis", 0.0),
        "experiments.self_s": layers.get("experiments", 0.0),
        "experiments.result_cache_hit_ratio": ratio(
            c["experiments.result_hits"], c["experiments.results"]
        ),
        "sweep.jobs": c["sweep.jobs"],
        "sweep.attempts": c["sweep.attempts"],
        "sweep.failed_jobs": c["sweep.failed_jobs"],
        "sweep.job_s": busy.get("sweep.job", 0.0),
        "sweep.overhead_s": attempt_s - busy.get("sweep.job", 0.0),
        "sweep.worker_util": ratio(attempt_s, c["sweep.slot_seconds"]),
        "sweep.journal_s": busy.get("sweep.journal", 0.0),
        "obs.manifests": c["obs.manifests"],
        "obs.manifest_s": layers.get("obs", 0.0),
        "traced_wall_s": traced_wall,
        "unattributed_s": traced_wall - sum(layers.values()),
        "trace_overhead_frac": ratio(traced_wall - untraced_wall, untraced_wall),
    }
    return values
