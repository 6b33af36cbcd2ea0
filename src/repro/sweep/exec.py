"""Fault-tolerant sweep execution: DAG scheduling, timeouts, retries.

:class:`SweepRunner` drives the job DAG from :func:`repro.sweep.spec.expand`
to completion over a bounded set of worker slots:

* a job becomes *ready* once every dependency reached a terminal state
  (completed **or** permanently failed — dependency edges are
  scheduling constraints, and sim jobs self-heal a missing trace);
* every attempt runs under an optional per-job **timeout** — an
  overdue attempt is cancelled (the worker process killed) and counted
  as a ``timeout`` failure;
* failed attempts are retried with **exponential backoff**
  (:class:`RetryPolicy`), and a job that exhausts its budget is a
  *permanent failure*: the sweep keeps going and reports it at the end
  (graceful degradation, exit code 3);
* every attempt's outcome is appended to the crash-safe journal the
  moment it is known, so ``--resume`` can reconstruct the run.

The runner is deliberately abstracted over *how* attempts execute (a
``Launcher``) and over *time* (injectable ``clock``/``sleep``), so unit
tests pin the exact retry schedule and timeout behaviour with no real
processes and no real sleeping.  Production uses
:class:`ProcessLauncher`: one daemonic ``multiprocessing.Process`` per
attempt — full isolation, so a crashing job can never take the
orchestrator (or a pool) down with it — with results handed back
through checksummed files (:mod:`repro.sweep.worker`).
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import multiprocessing.connection
import os
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import SweepError
from repro.experiments.common import ExperimentConfig
from repro.faults import FaultSpec
from repro.obs.tracing import TraceCollector, TraceContext
from repro.sweep.journal import Journal, JournalState, RECORD_VERSION
from repro.sweep.spec import SweepJob, SweepSpec
from repro.sweep.worker import (
    job_payload,
    load_result,
    result_filename,
    run_job_in_worker,
)

#: How long the scheduler sleeps between polls while attempts run.
POLL_INTERVAL = 0.05


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff."""

    max_attempts: int = 3
    backoff_base: float = 0.5
    backoff_mult: float = 2.0
    backoff_max: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise SweepError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise SweepError("backoff delays must be >= 0")
        if self.backoff_mult < 1.0:
            raise SweepError(
                f"backoff_mult must be >= 1, got {self.backoff_mult}"
            )

    def delay_after(self, failed_attempts: int) -> float:
        """Backoff before the next attempt, after N failures this run."""
        return min(
            self.backoff_base * self.backoff_mult ** (failed_attempts - 1),
            self.backoff_max,
        )

    def schedule(self) -> Tuple[float, ...]:
        """The full backoff schedule (one delay per retry)."""
        return tuple(
            self.delay_after(n) for n in range(1, self.max_attempts)
        )


@dataclasses.dataclass
class AttemptResult:
    """What one attempt produced, as observed by the orchestrator."""

    ok: bool
    payload: Optional[Dict[str, object]] = None
    seconds: float = 0.0
    #: Failure class: ``crash`` | ``timeout`` | ``corrupt`` | ``error``.
    kind: str = ""
    error: str = ""
    #: Worker-process telemetry from the result envelope (never part of
    #: the journalled payload): the worker pid, its flat span table, and
    #: its individual span events for the merged run timeline.
    pid: int = 0
    spans: Optional[Dict[str, object]] = None
    events: List[Dict[str, object]] = dataclasses.field(default_factory=list)
    #: The job's result object (``SimResult`` / ``FrameCharacterization``;
    #: ``None`` for traces), pickled as shipped in the envelope; callers
    #: that want it decode it with :func:`~repro.sweep.worker.result_value`.
    pickled: Optional[str] = None


@dataclasses.dataclass
class SweepOutcome:
    """Aggregate result of one orchestrator invocation."""

    #: job id -> deterministic result payload (journal-backed).
    completed: Dict[str, Dict[str, object]]
    #: job id -> total attempts across the journal's whole history.
    attempts: Dict[str, int]
    #: job id -> attempts executed by *this* invocation.
    executed: Dict[str, int]
    #: job id -> {"attempt", "kind", "error"} for permanent failures.
    failures: Dict[str, Dict[str, object]]
    #: Job ids skipped because the journal already had their result.
    resumed: Tuple[str, ...]
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


# -- process-backed launcher --------------------------------------------------

@dataclasses.dataclass
class _ProcessHandle:
    job: SweepJob
    process: multiprocessing.Process
    out_path: str


class ProcessLauncher:
    """One isolated process per attempt, results via checksummed files.

    ``spec`` supplies the run-wide scale, engine and trace source: a
    :class:`SweepSpec`, or the :class:`ExperimentConfig` of a
    ``gspc-experiments --jobs`` plan.
    """

    def __init__(
        self,
        spec: Union[SweepSpec, ExperimentConfig],
        cache_dir: Optional[str],
        tmp_dir: str,
        fault: Optional[FaultSpec] = None,
        trace_ctx: Optional[TraceContext] = None,
        trace_sample: int = 1,
    ):
        self.spec = spec
        self.cache_dir = cache_dir
        self.tmp_dir = tmp_dir
        self.fault = fault
        self.trace_ctx = trace_ctx
        self.trace_sample = trace_sample

    def start(self, job: SweepJob, index: int, attempt: int) -> _ProcessHandle:
        inject = None
        hang_seconds = 300.0
        if self.fault is not None and self.fault.matches(
            index, job.job_id, attempt
        ):
            inject = self.fault.kind
            hang_seconds = self.fault.hang_seconds
        os.makedirs(self.tmp_dir, exist_ok=True)
        out_path = os.path.join(
            self.tmp_dir, result_filename(job.job_id, attempt)
        )
        if os.path.exists(out_path):
            os.unlink(out_path)  # stale handoff from a killed run
        child_ctx = (
            self.trace_ctx.child(job.job_id, attempt).to_dict()
            if self.trace_ctx is not None
            else None
        )
        payload = job_payload(
            job, self.spec, self.cache_dir, inject, hang_seconds, child_ctx,
            self.trace_sample,
        )
        process = multiprocessing.Process(
            target=run_job_in_worker, args=(payload, out_path), daemon=True
        )
        process.start()
        return _ProcessHandle(job, process, out_path)

    def poll(self, handle: _ProcessHandle) -> Optional[AttemptResult]:
        if handle.process.is_alive():
            return None
        handle.process.join()
        exitcode = handle.process.exitcode
        try:
            if exitcode != 0:
                return AttemptResult(
                    ok=False,
                    kind="crash",
                    error=f"worker exited with code {exitcode}",
                )
            try:
                envelope = load_result(handle.out_path, handle.job.job_id)
            except SweepError as exc:
                return AttemptResult(ok=False, kind="corrupt", error=str(exc))
            events = envelope.get("events")
            spans = envelope.get("spans")
            return AttemptResult(
                ok=True,
                payload=envelope["payload"],  # type: ignore[arg-type]
                seconds=float(envelope.get("seconds", 0.0)),  # type: ignore[arg-type]
                pid=int(envelope.get("pid", 0) or 0),  # type: ignore[arg-type]
                spans=spans if isinstance(spans, dict) else None,
                events=list(events) if isinstance(events, list) else [],
                pickled=envelope.get("value"),  # type: ignore[arg-type]
            )
        finally:
            if os.path.exists(handle.out_path):
                os.unlink(handle.out_path)

    def cancel(self, handle: _ProcessHandle) -> None:
        handle.process.terminate()
        handle.process.join(1.0)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join()
        if os.path.exists(handle.out_path):
            os.unlink(handle.out_path)

    def wait(self, handles: Sequence[_ProcessHandle], timeout: float) -> None:
        """Block until a worker exits or ``timeout`` elapses."""
        sentinels = [
            handle.process.sentinel
            for handle in handles
            if handle.process.is_alive()
        ]
        if sentinels:
            multiprocessing.connection.wait(sentinels, timeout=timeout)


# -- the scheduler ------------------------------------------------------------

@dataclasses.dataclass
class _Running:
    handle: object
    job: SweepJob
    attempt: int
    index: int
    deadline: Optional[float]
    #: Wall-clock start, anchoring the orchestrator's attempt span on
    #: the same unix timeline the workers' events use.
    started_unix: float = 0.0


class SweepRunner:
    """Drive a sweep DAG to completion with retries and timeouts."""

    def __init__(
        self,
        jobs: Sequence[SweepJob],
        launcher,
        journal: Journal,
        *,
        workers: int = 1,
        timeout: Optional[float] = None,
        retry: RetryPolicy = RetryPolicy(),
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        poll_interval: float = POLL_INTERVAL,
        progress: Optional[Callable[[str], None]] = None,
        collector: Optional[TraceCollector] = None,
        wall: Callable[[], float] = time.time,
        on_result: Optional[Callable[[SweepJob, AttemptResult], None]] = None,
    ):
        if workers < 1:
            raise SweepError(f"worker count must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise SweepError(f"per-job timeout must be > 0, got {timeout}")
        self.jobs = list(jobs)
        self.launcher = launcher
        self.journal = journal
        self.workers = workers
        self.timeout = timeout
        self.retry = retry
        self.clock = clock
        self.sleep = sleep
        self.poll_interval = poll_interval
        self.progress = progress
        #: Optional sink for the run's merged span-event timeline: one
        #: orchestrator-side span per attempt, plus whatever events each
        #: worker shipped back in its result envelope.
        self.collector = collector
        self.wall = wall
        #: Called with every successful attempt once it is journalled;
        #: the only way to its envelope's telemetry and result object.
        self.on_result = on_result

    def _say(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def _trace_attempt(self, entry: "_Running", result: AttemptResult) -> None:
        """Feed the run's trace collector with one finished attempt.

        Records an orchestrator-side span covering the attempt's wall
        time (path ``attempt`` on success, ``attempt/<kind>`` on
        failure) and merges in whatever events the worker shipped back.
        """
        if self.collector is None:
            return
        job_id = entry.job.job_id
        self.collector.add_span(
            job_id,
            entry.started_unix,
            max(0.0, self.wall() - entry.started_unix),
            path="attempt" if result.ok else f"attempt/{result.kind}",
            ctx=self.collector.context.child(job_id, entry.attempt),
            args={"attempt": entry.attempt, "ok": result.ok},
        )
        self.collector.extend(result.events)

    def run(self, resume: Optional[JournalState] = None) -> SweepOutcome:
        started = self.clock()
        index_of = {
            job.job_id: ordinal
            for ordinal, job in enumerate(self.jobs, start=1)
        }
        plan_ids = set(index_of)
        completed: Dict[str, Dict[str, object]] = {}
        base_attempts: Dict[str, int] = {}
        if resume is not None:
            completed = {
                job_id: payload
                for job_id, payload in resume.completed_payloads.items()
                if job_id in plan_ids
            }
            base_attempts = {
                job_id: count
                for job_id, count in resume.attempts.items()
                if job_id in plan_ids
            }
        resumed = tuple(
            job.job_id for job in self.jobs if job.job_id in completed
        )
        executed: Dict[str, int] = {}
        failures: Dict[str, Dict[str, object]] = {}
        terminal = set(resumed)

        # Dependency bookkeeping: only edges to jobs actually in the plan.
        unmet: Dict[str, set] = {}
        dependents: Dict[str, List[str]] = {}
        ready: deque = deque()
        for job in self.jobs:
            if job.job_id in completed:
                continue
            deps = {
                dep for dep in job.deps if dep in plan_ids and dep not in terminal
            }
            if deps:
                unmet[job.job_id] = deps
                for dep in deps:
                    dependents.setdefault(dep, []).append(job.job_id)
            else:
                ready.append(job)
        job_by_id = {job.job_id: job for job in self.jobs}

        total = len(self.jobs)
        done_count = len(resumed)
        delayed: List[Tuple[float, int, str]] = []  # (not_before, seq, job_id)
        seq = 0
        running: Dict[str, _Running] = {}

        def release(job_id: str) -> None:
            terminal.add(job_id)
            for dependent in dependents.get(job_id, ()):  # plan order below
                deps = unmet.get(dependent)
                if deps is None:
                    continue
                deps.discard(job_id)
                if not deps:
                    del unmet[dependent]
                    ready.append(job_by_id[dependent])

        while ready or delayed or running:
            progressed = False
            while ready and len(running) < self.workers:
                job = ready.popleft()
                job_id = job.job_id
                executed[job_id] = executed.get(job_id, 0) + 1
                attempt = base_attempts.get(job_id, 0) + executed[job_id]
                handle = self.launcher.start(job, index_of[job_id], attempt)
                deadline = (
                    self.clock() + self.timeout
                    if self.timeout is not None
                    else None
                )
                running[job_id] = _Running(
                    handle, job, attempt, index_of[job_id], deadline,
                    self.wall(),
                )
                progressed = True

            for job_id in list(running):
                entry = running[job_id]
                result = self.launcher.poll(entry.handle)
                if (
                    result is None
                    and entry.deadline is not None
                    and self.clock() >= entry.deadline
                ):
                    self.launcher.cancel(entry.handle)
                    result = AttemptResult(
                        ok=False,
                        kind="timeout",
                        error=(
                            f"attempt timed out after {self.timeout:g}s"
                        ),
                    )
                if result is None:
                    continue
                progressed = True
                del running[job_id]
                self._trace_attempt(entry, result)
                if result.ok:
                    self.journal.append(
                        {
                            "v": RECORD_VERSION,
                            "job": job_id,
                            "status": "ok",
                            "attempt": entry.attempt,
                            "seconds": result.seconds,
                            "unix": self.wall(),
                            "payload": result.payload,
                        }
                    )
                    completed[job_id] = result.payload or {}
                    if self.on_result is not None:
                        self.on_result(entry.job, result)
                    done_count += 1
                    self._say(
                        f"[{done_count}/{total}] {job_id} ok "
                        f"({result.seconds:.2f}s, attempt {entry.attempt})"
                    )
                    release(job_id)
                    continue
                self.journal.append(
                    {
                        "v": RECORD_VERSION,
                        "job": job_id,
                        "status": "failed",
                        "attempt": entry.attempt,
                        "kind": result.kind,
                        "error": result.error,
                        "unix": self.wall(),
                    }
                )
                failed_attempts = executed[job_id]
                if failed_attempts < self.retry.max_attempts:
                    delay = self.retry.delay_after(failed_attempts)
                    seq += 1
                    heapq.heappush(
                        delayed, (self.clock() + delay, seq, job_id)
                    )
                    self._say(
                        f"{job_id} failed ({result.kind}: {result.error}) — "
                        f"retry {failed_attempts + 1}/"
                        f"{self.retry.max_attempts} in {delay:g}s"
                    )
                else:
                    failures[job_id] = {
                        "attempt": entry.attempt,
                        "kind": result.kind,
                        "error": result.error,
                    }
                    done_count += 1
                    self._say(
                        f"[{done_count}/{total}] {job_id} FAILED permanently "
                        f"({result.kind}: {result.error}, "
                        f"attempt {entry.attempt})"
                    )
                    release(job_id)

            now = self.clock()
            while delayed and delayed[0][0] <= now:
                _, _, job_id = heapq.heappop(delayed)
                ready.append(job_by_id[job_id])
                progressed = True

            if progressed:
                continue
            if running:
                waiter = getattr(self.launcher, "wait", None)
                if waiter is not None:
                    waiter(
                        [entry.handle for entry in running.values()],
                        self.poll_interval,
                    )
                else:
                    self.sleep(self.poll_interval)
            elif delayed:
                # Nothing running and nothing ready: sleep out exactly
                # the remaining backoff (tests pin this schedule).
                self.sleep(max(0.0, delayed[0][0] - self.clock()))

        attempts = {
            job.job_id: base_attempts.get(job.job_id, 0)
            + executed.get(job.job_id, 0)
            for job in self.jobs
        }
        return SweepOutcome(
            completed=completed,
            attempts=attempts,
            executed=executed,
            failures=failures,
            resumed=resumed,
            wall_seconds=self.clock() - started,
        )
