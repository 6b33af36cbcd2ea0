"""Trace containers.

A *trace* is the ordered sequence of load/store accesses reaching the LLC
(i.e. render-cache misses plus write-backs of displayable color), exactly
what the paper's offline cache simulator digests.  Traces are stored as
packed numpy arrays — a frame at the default reduced scale holds a few
hundred thousand accesses, so per-record Python objects would be far too
expensive.
"""

from __future__ import annotations

import dataclasses
from array import array
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.streams import Stream


@dataclasses.dataclass(frozen=True)
class Access:
    """A single LLC access (used at API edges, not in hot loops)."""

    address: int
    stream: Stream
    is_write: bool = False

    @property
    def block_address(self) -> int:
        """Address of the containing 64 B cache block."""
        return self.address >> 6


class Trace:
    """An immutable, packed sequence of LLC accesses.

    Attributes
    ----------
    addresses:
        ``uint64`` byte addresses.
    streams:
        ``uint8`` values of :class:`repro.streams.Stream`.
    writes:
        ``bool`` store flags.
    meta:
        Free-form metadata (application name, frame id, scale, seed…).
    """

    __slots__ = ("addresses", "streams", "writes", "meta")

    def __init__(
        self,
        addresses: np.ndarray,
        streams: np.ndarray,
        writes: np.ndarray,
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        addresses = np.ascontiguousarray(addresses, dtype=np.uint64)
        streams = np.ascontiguousarray(streams, dtype=np.uint8)
        writes = np.ascontiguousarray(writes, dtype=bool)
        if not (len(addresses) == len(streams) == len(writes)):
            raise TraceError(
                "trace arrays have mismatched lengths: "
                f"{len(addresses)}, {len(streams)}, {len(writes)}"
            )
        if len(streams) and streams.max(initial=0) >= len(Stream):
            raise TraceError("trace contains an out-of-range stream id")
        self.addresses = addresses
        self.streams = streams
        self.writes = writes
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[Access]:
        for address, stream, write in zip(
            self.addresses.tolist(), self.streams.tolist(), self.writes.tolist()
        ):
            yield Access(address, Stream(stream), write)

    def __getitem__(self, index: int) -> Access:
        return Access(
            int(self.addresses[index]),
            Stream(int(self.streams[index])),
            bool(self.writes[index]),
        )

    def block_addresses(self, block_bytes: int = 64) -> np.ndarray:
        """Block-aligned addresses for a given block size."""
        shift = int(block_bytes).bit_length() - 1
        return self.addresses >> np.uint64(shift)

    def slice(self, start: int, stop: int) -> "Trace":
        """A contiguous sub-trace (shares memory with the parent)."""
        return Trace(
            self.addresses[start:stop],
            self.streams[start:stop],
            self.writes[start:stop],
            self.meta,
        )

    def concat(self, other: "Trace") -> "Trace":
        """The concatenation of two traces (metadata from ``self``)."""
        return Trace(
            np.concatenate([self.addresses, other.addresses]),
            np.concatenate([self.streams, other.streams]),
            np.concatenate([self.writes, other.writes]),
            self.meta,
        )

    def stream_mask(self, stream: Stream) -> np.ndarray:
        return self.streams == np.uint8(int(stream))

    def __repr__(self) -> str:
        name = self.meta.get("name", "anonymous")
        return f"Trace(name={name!r}, accesses={len(self)})"


class TraceBuilder:
    """Incrementally builds a :class:`Trace` in packed ``array`` columns."""

    def __init__(self, meta: Optional[Mapping[str, object]] = None) -> None:
        self._addresses = array("Q")
        self._streams = array("B")
        self._writes = array("B")
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self._addresses)

    def append(self, address: int, stream: Stream, is_write: bool = False) -> None:
        self._addresses.append(address)
        self._streams.append(stream)
        self._writes.append(1 if is_write else 0)

    def extend(
        self,
        addresses: Sequence[int],
        stream: Stream,
        is_write: bool = False,
    ) -> None:
        """Append a batch of addresses sharing one stream and r/w flag."""
        count = len(addresses)
        self.extend_flagged(
            addresses, stream, b"\x01" * count if is_write else bytes(count)
        )

    def extend_flagged(
        self, addresses: Sequence[int], stream: Stream, writes: bytes
    ) -> None:
        """Append a batch sharing one stream, with one store flag (a byte
        of ``writes``) per access."""
        self._addresses.frombytes(np.asarray(addresses, dtype=np.uint64).tobytes())
        self._streams.frombytes(bytes((stream,)) * len(addresses))
        self._writes.frombytes(writes)

    def build(self) -> Trace:
        return Trace(
            np.frombuffer(self._addresses, dtype=np.uint64).copy(),
            np.frombuffer(self._streams, dtype=np.uint8).copy(),
            np.frombuffer(self._writes, dtype=np.uint8).astype(bool),
            self.meta,
        )
