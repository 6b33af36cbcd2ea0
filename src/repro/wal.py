"""Generic checksummed write-ahead log primitives.

Extracted from the sweep result journal (:mod:`repro.sweep.journal`) so
that any durable subsystem can reuse the same crash-safety recipe the
sweep engine proved out:

* every record is one JSONL line carrying a ``sha256`` over the
  canonical JSON of the rest of the record, flushed and fsync'd before
  the append returns — a process killed at any instant loses at most
  the record in flight;
* replay parses whatever made it to disk and *rejects* (counts, never
  trusts) torn lines, corrupt JSON, checksum mismatches, and records a
  caller-supplied validator refuses — so recovery is monotone under
  truncation at any byte offset;
* whole-file artifacts go through :func:`write_atomic` (serialize into
  a process-unique temporary file, fsync, ``os.replace``) so readers
  never observe a partial file.

Two subsystems build on this module: the sweep journal (per-attempt
records keyed by job id) and the serve result store's WAL
(:mod:`repro.serve.store`, content-addressed result records keyed by
cache key).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
from typing import Callable, Dict, List, Optional

from repro.errors import WALError

#: Record schema version shared by every WAL built on this module.
RECORD_VERSION = 1


def canonical_json(value: object) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def checksum(value: object) -> str:
    """SHA-256 over the canonical JSON of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def seal(record: Dict[str, object]) -> str:
    """One WAL line: the record plus its self-checksum."""
    return canonical_json({**record, "sha256": checksum(record)})


def verify_sealed(data: object) -> Optional[Dict[str, object]]:
    """The record inside a parsed line, or None on checksum/version failure.

    Checks only the properties every sealed record shares — it is an
    object, its ``sha256`` matches the canonical JSON of the rest, and
    it carries the supported ``v`` — leaving record-shape semantics to
    each WAL's own validator.
    """
    if not isinstance(data, dict):
        return None
    body = {key: value for key, value in data.items() if key != "sha256"}
    if data.get("sha256") != checksum(body):
        return None
    if body.get("v") != RECORD_VERSION:
        return None
    return body


class WriteAheadLog:
    """Append-only writer; every record hits the platter before return."""

    def __init__(self, path: str):
        self.path = path
        self._handle = None

    def append(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            directory = os.path.dirname(self.path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self._handle = open(self.path, "a", encoding="utf-8")
        self._handle.write(seal(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def append_once(path: str, record: Dict[str, object]) -> None:
    """Append one sealed record, open-to-fsync-to-close.

    The short-lived open in append mode makes this safe for many
    concurrent writer *processes* on one file: each ``write`` is a
    single whole-line ``O_APPEND`` write, so lines from racing writers
    interleave only at line granularity, which replay handles.
    """
    with WriteAheadLog(path) as log:
        log.append(record)


@dataclasses.dataclass
class WALState:
    """What :func:`replay` could reconstruct from one WAL file."""

    #: Accepted records, in on-disk order.
    records: List[Dict[str, object]]
    #: Lines dropped as torn/corrupt/checksum-mismatched/invalid.
    rejected_lines: int = 0


def replay(
    path: str,
    validator: Optional[
        Callable[[object], Optional[Dict[str, object]]]
    ] = None,
) -> WALState:
    """Accepted records from a WAL file (missing file = empty state).

    ``validator`` receives each parsed JSON line and returns the record
    or ``None`` to reject it; the default accepts any checksummed record
    (:func:`verify_sealed`).
    """
    accept = validator if validator is not None else verify_sealed
    state = WALState(records=[])
    try:
        # A corrupt byte that is not UTF-8 spoils only its own line:
        # the replacement character fails that line's JSON or checksum.
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            lines = handle.read().splitlines()
    except FileNotFoundError:
        return state
    except OSError as exc:
        raise WALError(f"cannot read WAL {path}: {exc}") from exc
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError:
            state.rejected_lines += 1
            continue
        record = accept(data)
        if record is None:
            state.rejected_lines += 1
            continue
        state.records.append(record)
    return state


#: Per-process serial for tmp-file names: concurrent writer *threads*
#: in one process (the serve worker pool) must never share a tmp path,
#: or their interleaved writes could be renamed into place torn.
_TMP_SERIAL = itertools.count()


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via tmp + fsync + rename."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}-{next(_TMP_SERIAL)}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


__all__ = [
    "RECORD_VERSION",
    "WALState",
    "WriteAheadLog",
    "append_once",
    "canonical_json",
    "checksum",
    "replay",
    "seal",
    "verify_sealed",
    "write_atomic",
]
