"""Deterministic fault injection for orchestration testing.

The sweep engine (and with it ``gspc-experiments --jobs``, which runs
on the same engine) can be told to misbehave on purpose so that the
retry, timeout, and journal-recovery paths are testable in CI instead
of only firing on real production incidents.  A
:class:`FaultSpec` names one job — by plan ordinal or by a substring of
its job id — plus a fault kind and the attempt(s) on which it fires:

* ``crash`` — the worker process hard-exits (``os._exit``), exactly
  like an OOM kill or a segfault: no result file, non-zero exit code.
* ``hang`` — the worker sleeps past any reasonable deadline so the
  orchestrator's per-job timeout fires and the attempt is retried.
* ``corrupt`` — the worker completes but ships back a mangled result
  payload; the orchestrator must reject it (checksum/parse failure)
  and re-run the job.  Applied at the payload-serialization layer
  (:mod:`repro.sweep.worker`), never here.

Specs parse from ``--inject-fault`` or the ``REPRO_FAULT_SPEC``
environment variable, e.g. ``job=3,kind=crash,attempt=*``.  By default
a fault fires only on attempt 1, so a retried attempt succeeds and the
recovery path — not just the failure — is exercised.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Mapping, Optional

from repro.errors import SweepError

#: Environment variable consulted when no ``--inject-fault`` is given.
FAULT_ENV = "REPRO_FAULT_SPEC"
#: Recognized fault kinds.
FAULT_KINDS = ("crash", "hang", "corrupt")
#: Exit code of a worker taken down by an injected crash.
CRASH_EXIT_CODE = 70
#: Wildcard accepted by the ``attempt=`` field.
EVERY_ATTEMPT = "*"


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """One deterministic fault: which job, what kind, which attempt."""

    #: Plan ordinal (``"3"``) or job-id substring (``"sim:HAWX"``).
    job: str
    kind: str
    #: Attempt number the fault fires on, or ``"*"`` for every attempt.
    attempt: str = "1"
    #: How long a ``hang`` sleeps before giving up and crashing.
    hang_seconds: float = 300.0

    def __post_init__(self) -> None:
        if not self.job:
            raise SweepError("fault spec needs a job= selector")
        if self.kind not in FAULT_KINDS:
            raise SweepError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.attempt != EVERY_ATTEMPT:
            try:
                if int(self.attempt) < 1:
                    raise ValueError
            except ValueError:
                raise SweepError(
                    f"fault attempt must be a positive integer or "
                    f"{EVERY_ATTEMPT!r}, got {self.attempt!r}"
                ) from None
        if self.hang_seconds <= 0:
            raise SweepError(
                f"fault hang_seconds must be > 0, got {self.hang_seconds!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse ``job=K,kind=crash[,attempt=N|*][,hang_seconds=S]``."""
        fields = {}
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, sep, value = chunk.partition("=")
            if not sep or not value:
                raise SweepError(
                    f"malformed fault field {chunk!r} in {text!r}; "
                    "expected key=value"
                )
            fields[key.strip()] = value.strip()
        unknown = set(fields) - {"job", "kind", "attempt", "hang_seconds"}
        if unknown:
            raise SweepError(
                f"unknown fault field(s) {sorted(unknown)} in {text!r}"
            )
        if "job" not in fields or "kind" not in fields:
            raise SweepError(
                f"fault spec {text!r} needs at least job= and kind="
            )
        try:
            hang_seconds = float(fields.get("hang_seconds", 300.0))
        except ValueError:
            raise SweepError(
                f"fault hang_seconds must be a number, "
                f"got {fields['hang_seconds']!r}"
            ) from None
        return cls(
            job=fields["job"],
            kind=fields["kind"],
            attempt=fields.get("attempt", "1"),
            hang_seconds=hang_seconds,
        )

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> Optional["FaultSpec"]:
        """The fault named by ``$REPRO_FAULT_SPEC``, if any."""
        text = (environ if environ is not None else os.environ).get(FAULT_ENV)
        return cls.parse(text) if text else None

    def describe(self) -> str:
        """Human-readable one-liner for logs and CLI banners."""
        target = (
            f"job ordinal {self.job}"
            if self.job.isdigit()
            else f"job id containing {self.job!r}"
        )
        attempts = (
            "every attempt"
            if self.attempt == EVERY_ATTEMPT
            else f"attempt {self.attempt}"
        )
        return f"{self.kind} on {target}, {attempts}"

    def matches(self, index: int, job_id: str, attempt: int) -> bool:
        """Does this fault fire for (plan ordinal, job id, attempt)?"""
        if self.attempt != EVERY_ATTEMPT and int(self.attempt) != attempt:
            return False
        if self.job.isdigit():
            return int(self.job) == index
        return self.job in job_id


def fire(kind: str, hang_seconds: float = 300.0) -> None:
    """Execute an injected ``crash`` or ``hang`` in the current process.

    A hang that outlives ``hang_seconds`` without being killed by the
    orchestrator turns into a crash, so a fault can never accidentally
    become a slow success.  ``corrupt`` is payload-level and rejected
    here — the result writer applies it.
    """
    if kind == "crash":
        os._exit(CRASH_EXIT_CODE)
    if kind == "hang":
        time.sleep(hang_seconds)
        os._exit(CRASH_EXIT_CODE)
    raise SweepError(
        f"fault kind {kind!r} cannot fire in-process; "
        "'corrupt' is applied when the result payload is written"
    )
