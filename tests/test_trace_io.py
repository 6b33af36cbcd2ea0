"""Trace persistence tests: the ``.gsct`` columnar format."""

import os

import numpy as np
import pytest

from repro.errors import TraceError
from repro.streams import Stream
from repro.trace.io import ALIGNMENT, load_trace, save_trace
from repro.trace.record import TraceBuilder


def _sample_trace():
    builder = TraceBuilder({"name": "io-test", "frame": 3, "scale": 0.125})
    for index in range(500):
        builder.append(index * 64, Stream(index % 8), index % 3 == 0)
    return builder.build()


def test_round_trip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.gsct"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert len(loaded) == len(trace)
    assert np.array_equal(loaded.addresses, trace.addresses)
    assert np.array_equal(loaded.streams, trace.streams)
    assert np.array_equal(loaded.writes, trace.writes)
    assert loaded.meta == trace.meta


def test_columnar_round_trip(tmp_path):
    """The file starts with the ``GSCT`` magic, the header on disk
    describes the trace, and every column comes back with the dtype
    ``Trace`` keeps in memory."""
    import json

    trace = _sample_trace()
    path = tmp_path / "trace.gsct"
    save_trace(trace, path)
    blob = path.read_bytes()
    assert blob[:4] == b"GSCT"
    header_len = int(np.frombuffer(blob[8:12], dtype="<u4")[0])
    header = json.loads(blob[12 : 12 + header_len].decode("utf-8"))
    assert header["count"] == len(trace)
    assert header["meta"] == trace.meta
    assert set(header["columns"]) == {"addresses", "streams", "writes"}
    loaded = load_trace(path)
    assert loaded.addresses.dtype == np.uint64
    assert loaded.streams.dtype == np.uint8
    assert loaded.writes.dtype == np.bool_
    assert np.array_equal(loaded.writes, trace.writes)


def test_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "trace.gsct"
    save_trace(_sample_trace(), path)
    assert path.exists()


def test_missing_file_raises_trace_error(tmp_path):
    with pytest.raises(TraceError):
        load_trace(tmp_path / "nope.gsct")


def test_corrupt_file_raises_trace_error(tmp_path):
    path = tmp_path / "bad.gsct"
    path.write_bytes(b"this is not a trace file")
    with pytest.raises(TraceError):
        load_trace(path)


def test_empty_trace_round_trip(tmp_path):
    trace = TraceBuilder({"name": "empty"}).build()
    path = tmp_path / "empty.gsct"
    save_trace(trace, path)
    assert len(load_trace(path)) == 0


def test_columnar_empty_trace_round_trip(tmp_path):
    """An empty trace keeps its metadata and column dtypes, although
    its zero-length columns are not memmapped."""
    meta = {"name": "empty", "frame": 0}
    path = tmp_path / "empty.gsct"
    save_trace(TraceBuilder(meta).build(), path)
    loaded = load_trace(path)
    assert len(loaded) == 0
    assert loaded.meta == meta
    assert loaded.addresses.dtype == np.uint64
    assert loaded.streams.dtype == np.uint8
    assert loaded.writes.dtype == np.bool_
    assert list(loaded) == []


def test_save_trace_rejects_npz(tmp_path):
    """``.gsct`` is the only format: an ``.npz`` path raises before
    anything is written."""
    with pytest.raises(TraceError, match="unknown trace extension"):
        save_trace(_sample_trace(), tmp_path / "x.npz")
    assert os.listdir(tmp_path) == []


def _backing_memmap(array):
    """The memmap at the end of ``array``'s view chain, or None."""
    while array is not None:
        if isinstance(array, np.memmap):
            return array
        array = array.base
    return None


def test_columnar_load_is_memmapped(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.gsct"
    save_trace(trace, path)
    loaded = load_trace(path)
    for column in (loaded.addresses, loaded.streams, loaded.writes):
        mapped = _backing_memmap(column)
        assert mapped is not None  # zero-copy: no inflate, no array copy
        # Columns land on the aligned offsets the header promises.
        assert mapped.offset % ALIGNMENT == 0


def test_columnar_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.gsct"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(TraceError, match="magic"):
        load_trace(path)


def test_columnar_rejects_wrong_version(tmp_path):
    path = tmp_path / "v999.gsct"
    save_trace(_sample_trace(), path)
    blob = bytearray(path.read_bytes())
    blob[4:8] = np.array([999], dtype="<u4").tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(TraceError, match="version"):
        load_trace(path)


def test_columnar_rejects_truncated_file(tmp_path):
    path = tmp_path / "cut.gsct"
    save_trace(_sample_trace(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TraceError):
        load_trace(path)


def test_columnar_trace_replays_identically(tmp_path):
    """A memmapped trace drives both engines like the in-memory one."""
    from repro.config import KB, CacheParams, LLCConfig
    from repro.sim.offline import simulate_trace

    trace = _sample_trace()
    path = tmp_path / "trace.gsct"
    save_trace(trace, path)
    loaded = load_trace(path)
    llc = LLCConfig(params=CacheParams(2 * KB, ways=2), banks=1, sample_period=4)
    for engine in ("reference", "fast"):
        memory = simulate_trace(trace, "gspc", llc, engine=engine)
        mapped = simulate_trace(loaded, "gspc", llc, engine=engine)
        assert memory.stats.snapshot() == mapped.stats.snapshot()
