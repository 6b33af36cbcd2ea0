"""Trace persistence: the binary columnar ``.gsct`` format.

``.gsct`` is the only trace file format.  It stores the three trace
columns as raw little-endian arrays at 64-byte-aligned offsets behind a
tiny JSON header, so :func:`load_trace` hands ``np.memmap`` views
straight to :class:`~repro.trace.record.Trace` — the kernel pages the
file in lazily and nothing is decompressed or copied.  Both engines
consume the same views: ``Trace`` keeps contiguous same-dtype arrays as
is, so the fast engine's vectorized decode and the reference engine's
replay read one shared format.

File layout::

    bytes 0..3    magic  b"GSCT"
    bytes 4..7    format version   (uint32, little-endian)
    bytes 8..11   JSON header size (uint32, little-endian)
    bytes 12..    JSON header: {"count", "meta", "columns": {name:
                  {"dtype", "offset"}}} — offsets are absolute and
                  64-byte aligned
    ...           raw column payloads, in header order

The version field rejects files of another layout instead of misreading
them, and a path with any other extension raises :class:`TraceError`
(CLIs map it to a usage error, exit code 2).
"""

from __future__ import annotations

import json
import os
from typing import Union

import numpy as np

from repro.errors import TraceError
from repro.trace.record import Trace

MAGIC = b"GSCT"
FORMAT_VERSION = 1
ALIGNMENT = 64
TRACE_EXTENSION = ".gsct"

PathLike = Union[str, "os.PathLike[str]"]

#: Column name -> stored dtype.  ``writes`` travels as ``uint8`` —
#: portable, and reinterpreted as ``bool`` on load without a copy.
_COLUMNS = (("addresses", "<u8"), ("streams", "u1"), ("writes", "u1"))


def check_trace_path(path: PathLike) -> str:
    """``path`` as a string; :class:`TraceError` unless it ends in ``.gsct``.

    Any other extension is a caller mistake, never something to guess a
    format for.
    """
    base = os.fspath(path)
    if not base.endswith(TRACE_EXTENSION):
        raise TraceError(
            f"unknown trace extension on {base!r}: expected {TRACE_EXTENSION}"
        )
    return base


def _aligned(offset: int) -> int:
    return (offset + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to a ``.gsct`` ``path`` (creating parent directories).

    The write is atomic: the file is serialized into a process-unique
    temporary in the same directory and then renamed over ``path``, so
    concurrent readers (and concurrent writers racing on the same cache
    key) never observe a partially written trace.
    """
    base = check_trace_path(path)
    directory = os.path.dirname(base)
    if directory:
        os.makedirs(directory, exist_ok=True)

    arrays = {
        name: np.ascontiguousarray(getattr(trace, name), dtype=dtype)
        for name, dtype in _COLUMNS
    }
    # The header length feeds back into the first column offset; padding
    # the JSON to the alignment boundary keeps the layout single-pass.
    columns = {name: {"dtype": dtype, "offset": 0} for name, dtype in _COLUMNS}
    header = {"count": len(trace), "meta": dict(trace.meta), "columns": columns}
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    while True:  # re-place until the offsets' digit width stabilizes
        offset = _aligned(12 + len(encoded))
        for name, _ in _COLUMNS:
            columns[name]["offset"] = offset
            offset = _aligned(offset + arrays[name].nbytes)
        refreshed = json.dumps(header, sort_keys=True).encode("utf-8")
        if len(refreshed) == len(encoded):
            encoded = refreshed
            break
        encoded = refreshed

    tmp = f"{base}.tmp-{os.getpid()}{TRACE_EXTENSION}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(MAGIC)
            handle.write(
                np.array([FORMAT_VERSION, len(encoded)], dtype="<u4").tobytes()
            )
            handle.write(encoded)
            for name, _ in _COLUMNS:
                handle.seek(columns[name]["offset"])
                handle.write(arrays[name].tobytes())
        os.replace(tmp, base)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_trace(path: PathLike) -> Trace:
    """Load a trace written by :func:`save_trace`, its columns memmapped."""
    base = check_trace_path(path)
    try:
        with open(base, "rb") as handle:
            preamble = handle.read(12)
            if len(preamble) < 12 or preamble[:4] != MAGIC:
                raise TraceError(f"not a columnar trace (bad magic): {base}")
            version, header_len = np.frombuffer(preamble[4:], dtype="<u4")
            if int(version) != FORMAT_VERSION:
                raise TraceError(
                    f"columnar trace version {int(version)} unsupported "
                    f"(expected {FORMAT_VERSION}): {base}"
                )
            raw = handle.read(int(header_len))
            if len(raw) != int(header_len):
                raise TraceError(f"truncated columnar header: {base}")
            header = json.loads(raw.decode("utf-8"))
        count = int(header["count"])
        size = os.path.getsize(base)
        views = {}
        for name, dtype in _COLUMNS:
            offset = int(header["columns"][name]["offset"])
            nbytes = count * np.dtype(dtype).itemsize
            if nbytes == 0:  # zero-length mappings are not a thing
                views[name] = np.empty(0, dtype=dtype)
                continue
            if offset + nbytes > size:
                raise TraceError(f"truncated column {name!r}: {base}")
            views[name] = np.memmap(
                base, dtype=dtype, mode="r", offset=offset, shape=(count,)
            )
        return Trace(
            views["addresses"],
            views["streams"],
            views["writes"].view(np.bool_),
            header.get("meta", {}),
        )
    except (OSError, KeyError, ValueError) as exc:
        raise TraceError(f"cannot load columnar trace from {base}: {exc}") from exc
