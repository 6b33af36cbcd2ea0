"""ProcessLauncher's long-lived workers on real processes: how many
exist, what a crash, a hang or a raising run leaves behind, and what
happens to them when their orchestrator is killed outright."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

import repro
from repro.experiments.common import ExperimentConfig
from repro.faults import CRASH_EXIT_CODE, FaultSpec
from repro.sweep.exec import ProcessLauncher, RetryPolicy, SweepRunner
from repro.sweep.journal import Journal, journal_path
from repro.sweep.spec import SweepSpec, expand
from repro.sweep.worker import execute_job, result_value

#: 1 trace job, then the sims in (llc_mb, policy) order.
SPEC = SweepSpec(
    name="workers",
    policies=("drrip", "lru", "nru"),
    llc_mb=(8, 16),
    apps=("DMC",),
    scale=0.03125,
)
PLAN = expand(SPEC)
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.01)


def _config(job, cache_dir):
    return ExperimentConfig(
        scale=SPEC.scale, frames_per_app=None, llc_mb=job.llc_mb,
        cache_dir=cache_dir, engine=SPEC.engine, source=SPEC.source,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A trace cache that already holds the plan's frame, so every job
    is quick and no attempt comes near a test's timeout."""
    cache = str(tmp_path_factory.mktemp("trace-cache"))
    execute_job(PLAN[0], _config(PLAN[0], cache))
    return cache


class RecordingLauncher(ProcessLauncher):
    """Keeps every attempt's outcome, keyed by job id, in finish order."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.outcomes = []

    def poll(self, handle):
        result = super().poll(handle)
        if result is not None:
            self.outcomes.append((handle.job.job_id, result))
        return result


def _run(tmp_path, cache_dir, jobs=PLAN, fault=None, **kwargs):
    tmp_path.mkdir(exist_ok=True)
    launcher = RecordingLauncher(
        SPEC, cache_dir, str(tmp_path / "tmp"), fault
    )
    pids = {}

    def keep_pid(job, result):
        pids[job.job_id] = result.pid

    with Journal(journal_path(str(tmp_path))) as journal:
        outcome = SweepRunner(
            jobs, launcher, journal, retry=FAST_RETRY,
            on_result=kwargs.pop("on_result", keep_pid), **kwargs,
        ).run()
    return outcome, launcher, pids


def test_two_workers_run_every_attempt_and_match_in_process(tmp_path, cache_dir):
    """Seven jobs on two slots run on at most two processes, and each
    sim's result is the one ``execute_job`` computes in-process."""
    values = {}

    def keep(job, result):
        values[job.job_id] = (result.pid, result_value(result.pickled))

    outcome, _, _ = _run(tmp_path, cache_dir, workers=2, on_result=keep)
    assert outcome.ok and len(outcome.completed) == len(PLAN)
    assert len({pid for pid, _ in values.values()}) <= 2
    sims = [job for job in PLAN if job.kind == "sim"]
    assert len(sims) >= 6
    for job in sims:
        expected = execute_job(job, _config(job, cache_dir)).value
        got = values[job.job_id][1]
        assert got.accesses == expected.accesses
        assert got.stats.snapshot() == expected.stats.snapshot()
        assert outcome.completed[job.job_id]["metrics"] == (
            expected.stats.snapshot()
        )


def test_crash_fails_its_attempt_and_only_its_worker_is_replaced(
    tmp_path, cache_dir
):
    crashed = PLAN[2]
    outcome, launcher, pids = _run(
        tmp_path, cache_dir, workers=2,
        fault=FaultSpec(job="3", kind="crash"),
    )
    assert outcome.ok and len(outcome.completed) == len(PLAN)
    assert outcome.attempts[crashed.job_id] == 2
    assert [
        (job_id, result.kind, result.error)
        for job_id, result in launcher.outcomes
        if not result.ok
    ] == [
        (crashed.job_id, "crash", f"worker exited with code {CRASH_EXIT_CODE}")
    ]
    # Two workers plus the one that replaced the crashed worker.
    assert len(set(pids.values())) <= 3


def test_timeout_kills_only_the_hung_worker(tmp_path, cache_dir):
    """The trace's worker takes the hung sim; the sibling sim's worker
    outlives the cancel, and the sibling's result arrives."""
    jobs = PLAN[:3]
    cancelled = []
    alive_after_cancel = set()

    class Watching(ProcessLauncher):
        def cancel(self, handle):
            super().cancel(handle)
            cancelled.append(handle.job.job_id)
            alive_after_cancel.update(
                child.pid for child in multiprocessing.active_children()
            )

    launcher = Watching(
        SPEC, cache_dir, str(tmp_path / "tmp"),
        FaultSpec(job="2", kind="hang"),
    )
    pids = {}
    with Journal(journal_path(str(tmp_path))) as journal:
        outcome = SweepRunner(
            jobs, launcher, journal, workers=2, timeout=3.0,
            retry=FAST_RETRY,
            on_result=lambda job, result: pids.setdefault(
                job.job_id, result.pid
            ),
        ).run()
    assert outcome.ok and set(outcome.completed) == {j.job_id for j in jobs}
    assert cancelled == [jobs[1].job_id]
    assert outcome.attempts == {jobs[0].job_id: 1, jobs[1].job_id: 2,
                                jobs[2].job_id: 1}
    assert pids[jobs[0].job_id] not in alive_after_cancel
    assert pids[jobs[2].job_id] in alive_after_cancel


def test_no_worker_outlives_run_whether_it_returns_or_raises(
    tmp_path, cache_dir
):
    before = set(multiprocessing.active_children())
    _run(tmp_path / "returns", cache_dir, workers=2)
    assert set(multiprocessing.active_children()) <= before

    def boom(job, result):
        if job.kind == "sim":
            raise RuntimeError("stop the run")

    # The first sim hangs on one worker while the second finishes on
    # the other and the callback raises out of run().
    with pytest.raises(RuntimeError, match="stop the run"):
        _run(
            tmp_path / "raises", cache_dir, jobs=PLAN[:3], workers=2,
            fault=FaultSpec(job="2", kind="hang"), on_result=boom,
        )
    assert set(multiprocessing.active_children()) <= before


# -- the orchestrator dies: its workers must not stay behind ------------------

_ORPHANING = textwrap.dedent(
    """
    import json, multiprocessing, os, signal, sys

    from repro.faults import FaultSpec
    from repro.sweep.exec import ProcessLauncher
    from repro.sweep.spec import SweepSpec, expand

    cache_dir, tmp_dir, pid_file = sys.argv[1:]
    spec = SweepSpec(name="orphans", policies=("drrip", "lru"),
                     apps=("DMC",), scale=0.03125)
    trace, hung, other = expand(spec)
    launcher = ProcessLauncher(spec, cache_dir, tmp_dir,
                               FaultSpec(job="2", kind="hang"))

    def finish(handle):
        while launcher.poll(handle) is None:
            launcher.wait([handle], 0.05)

    finish(launcher.start(trace, 1, 1))
    launcher.start(hung, 2, 1)
    finish(launcher.start(other, 3, 1))
    with open(pid_file, "w") as handle:
        json.dump([child.pid for child in multiprocessing.active_children()],
                  handle)
    os.kill(os.getpid(), signal.SIGKILL)
    """
)


def _running(pid):
    """Is ``pid`` a live process?  A zombie left for init to reap is not."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(
    not os.path.isdir("/proc/self"), reason="reads process state from /proc"
)
def test_workers_exit_when_their_orchestrator_is_killed(tmp_path, cache_dir):
    pid_file = str(tmp_path / "pids.json")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ),
    )
    child = subprocess.run(
        [sys.executable, "-c", _ORPHANING, cache_dir,
         str(tmp_path / "tmp"), pid_file],
        env=env, timeout=60,
    )
    assert child.returncode == -signal.SIGKILL
    with open(pid_file, encoding="utf-8") as handle:
        pids = json.load(handle)
    deadline = time.monotonic() + 5.0
    try:
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)
    assert len(pids) == 2  # one idle worker, one hung in its job
