"""Trace container tests."""

import numpy as np
import pytest

from repro.errors import TraceError
from repro.streams import Stream
from repro.trace.record import Access, Trace, TraceBuilder


def test_access_block_address():
    assert Access(0, Stream.Z).block_address == 0
    assert Access(63, Stream.Z).block_address == 0
    assert Access(64, Stream.Z).block_address == 1


def test_builder_round_trip():
    builder = TraceBuilder({"name": "t"})
    builder.append(128, Stream.RT, True)
    builder.append(0, Stream.TEXTURE)
    trace = builder.build()
    assert len(trace) == 2
    first = trace[0]
    assert first.address == 128
    assert first.stream is Stream.RT
    assert first.is_write
    assert not trace[1].is_write


def test_builder_growth_beyond_initial_capacity():
    builder = TraceBuilder()
    for index in range(10_000):
        builder.append(index * 64, Stream.Z)
    trace = builder.build()
    assert len(trace) == 10_000
    assert trace[9_999].address == 9_999 * 64


def test_builder_extend_batches():
    builder = TraceBuilder()
    addresses = np.arange(100, dtype=np.uint64) * 64
    builder.extend(addresses, Stream.TEXTURE)
    builder.extend(addresses, Stream.RT, is_write=True)
    trace = builder.build()
    assert len(trace) == 200
    assert int(trace.stream_mask(Stream.TEXTURE).sum()) == 100
    assert int(trace.writes.sum()) == 100


def test_builder_extend_flagged_keeps_one_flag_per_access():
    builder = TraceBuilder()
    builder.extend_flagged([128, 64, 0], Stream.RT, bytearray([1, 0, 0]))
    first = builder.build()
    builder.append(192, Stream.Z, True)  # the builder still grows after build()
    trace = builder.build()
    assert len(first) == 3
    assert trace.addresses.tolist() == [128, 64, 0, 192]
    assert trace.writes.tolist() == [True, False, False, True]
    assert trace.streams.tolist() == [int(Stream.RT)] * 3 + [int(Stream.Z)]


def test_mismatched_arrays_rejected():
    with pytest.raises(TraceError):
        Trace(
            np.zeros(3, np.uint64), np.zeros(2, np.uint8), np.zeros(3, bool)
        )


def test_out_of_range_stream_rejected():
    with pytest.raises(TraceError):
        Trace(
            np.zeros(1, np.uint64),
            np.array([99], np.uint8),
            np.zeros(1, bool),
        )


def test_block_addresses_shift():
    trace = Trace(
        np.array([0, 64, 127, 128], np.uint64),
        np.zeros(4, np.uint8),
        np.zeros(4, bool),
    )
    assert trace.block_addresses().tolist() == [0, 1, 1, 2]


def test_slice_shares_metadata():
    builder = TraceBuilder({"name": "parent"})
    for index in range(10):
        builder.append(index * 64, Stream.Z)
    trace = builder.build()
    part = trace.slice(2, 5)
    assert len(part) == 3
    assert part.meta["name"] == "parent"
    assert part[0].address == 2 * 64


def test_concat():
    a = TraceBuilder({"name": "a"})
    a.append(0, Stream.Z)
    b = TraceBuilder({"name": "b"})
    b.append(64, Stream.RT)
    joined = a.build().concat(b.build())
    assert len(joined) == 2
    assert joined.meta["name"] == "a"


def test_iteration_yields_accesses():
    builder = TraceBuilder()
    builder.append(64, Stream.HIZ)
    accesses = list(builder.build())
    assert accesses == [Access(64, Stream.HIZ, False)]
