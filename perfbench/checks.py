"""Output checks: conservation on every simulated result, per-operation
digests of the simulated statistics, and failure accounting.

An operation is one experiment, one sweep job or one ``gspc-sim``
policy result.  It fails on a raised error, a nonzero exit, missing
output, a conservation break, or a digest that differs from the pinned
one (default seed) or from the run's first pass (every other seed).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Committed digests of every operation's output at the default seed.
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


class CheckFailure(Exception):
    """A simulated result broke an invariant."""


def conservation_problems(trace, result) -> List[str]:
    """Hits + misses + bypasses must equal the trace's accesses, per stream."""
    expected = np.bincount(np.asarray(trace.streams), minlength=256)
    problems = []
    if result.accesses != len(trace):
        problems.append(f"result has {result.accesses} accesses, trace {len(trace)}")
    seen = 0
    for stream, stats in result.stats.per_stream.items():
        counted = stats.hits + stats.misses + stats.bypasses
        seen += int(expected[int(stream)])
        if counted != expected[int(stream)]:
            problems.append(
                f"{stream.name}: hits+misses+bypasses={counted}, "
                f"trace has {int(expected[int(stream)])}"
            )
    if seen != len(trace):
        problems.append(f"{len(trace) - seen} accesses on streams without stats")
    return problems


def checked(simulate: Callable) -> Callable:
    """``simulate_trace`` that raises :class:`CheckFailure` on a break."""

    @functools.wraps(simulate)
    def wrapper(*args, **kwargs):
        result = simulate(*args, **kwargs)
        problems = conservation_problems(args[0] if args else kwargs["trace"], result)
        if problems:
            raise CheckFailure(
                f"conservation broken for {result.policy}: " + "; ".join(problems)
            )
        return result

    return wrapper


def digest(value) -> str:
    """Short stable digest of JSON-able data or bytes."""
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(value).hexdigest()[:16]


@dataclasses.dataclass
class PassOutput:
    """What one timed pass produced, per operation."""

    #: op id -> digest of its simulated output (``None``: no statistics,
    #: such as a sweep's trace job; it only has to succeed).
    digests: Dict[str, Optional[str]] = dataclasses.field(default_factory=dict)
    #: op id -> why it failed.
    failures: Dict[str, str] = dataclasses.field(default_factory=dict)


def score(
    passes: Sequence[PassOutput], pinned: Optional[Dict[str, str]] = None
) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, problems)`` over every pass of a run.

    With ``pinned`` each pass must reproduce it exactly, op for op;
    without, every pass must reproduce the first pass.
    """
    attempted = failed = 0
    problems: List[str] = []
    reference = pinned
    for index, output in enumerate(passes):
        if reference is None:
            reference = {op: d for op, d in output.digests.items() if d}
        ops = set(output.digests) | set(output.failures)
        if pinned is not None:
            ops |= set(pinned)
        for op in sorted(ops):
            attempted += 1
            found = output.digests.get(op)
            if op in output.failures:
                problem = output.failures[op]
            elif op not in output.digests:
                problem = "no output"
            elif pinned is not None and op not in pinned:
                problem = "not in the pinned digests"
            elif found is not None and reference.get(op, found) != found:
                problem = f"digest {found} != {reference[op]}"
            else:
                continue
            failed += 1
            problems.append(f"pass {index}: {op}: {problem}")
    return attempted, failed, problems


def load_pinned(workload: str) -> Dict[str, str]:
    with open(PINNED_PATH, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def write_pinned(workload: str, output: PassOutput) -> None:
    pinned = {}
    if os.path.exists(PINNED_PATH):
        with open(PINNED_PATH, encoding="utf-8") as handle:
            pinned = json.load(handle)
    pinned[workload] = dict(sorted(output.digests.items()))
    with open(PINNED_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")
