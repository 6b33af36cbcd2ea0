"""DRAM timing-model tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import DDR3_1600, DDR3_1867, DRAMConfig
from repro.gpu.dram import DRAMTimingModel, account_windows


#: Blocks interleave over channels then banks; this stride returns to
#: channel 0 / bank 0 within the same DRAM row.
SAME_BANK_STRIDE = DDR3_1600.channels * DDR3_1600.banks_per_channel * 64


def test_row_hit_tracking():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.request(SAME_BANK_STRIDE)  # same channel+bank, same row
    assert dram.total_row_hits == 1
    assert dram.row_hit_rate == pytest.approx(0.5)


def test_row_conflict_detected():
    dram = DRAMTimingModel(DDR3_1600)
    config = DDR3_1600
    dram.request(0)
    # Same channel and bank (block + channels*banks blocks), new row.
    far = config.row_bytes * config.channels * config.banks_per_channel
    dram.request(far)
    assert dram.total_row_hits == 0


def test_window_time_scales_with_requests():
    dram = DRAMTimingModel(DDR3_1600)
    for block in range(10):
        dram.request(block * 64)
    short = dram.drain_window_ns()
    for block in range(100):
        dram.request(block * 64)
    long = dram.drain_window_ns()
    assert long > short > 0.0


def test_drain_resets_window_but_keeps_rows_open():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.drain_window_ns()
    assert dram.drain_window_ns() == 0.0
    dram.request(SAME_BANK_STRIDE)  # row stayed open across windows
    assert dram.total_row_hits == 1


def test_requests_spread_over_channels():
    dram = DRAMTimingModel(DDR3_1600)
    # Alternate channels: per-channel data time is half the total.
    for block in range(64):
        dram.request(block * 64)
    one_channel = DRAMTimingModel(DRAMConfig(channels=1))
    for block in range(64):
        one_channel.request(block * 64)
    assert dram.drain_window_ns() < one_channel.drain_window_ns()


def test_faster_part_is_faster():
    slow = DRAMTimingModel(DDR3_1600)
    fast = DRAMTimingModel(DDR3_1867)
    for block in range(0, 4096, 128):  # row misses
        slow.request(block * 64)
        fast.request(block * 64)
    assert fast.drain_window_ns() < slow.drain_window_ns()


def test_writeback_accounting():
    """A posted write-back is an ordinary request at its victim address:
    it counts once, and a second write to its row is a row hit."""
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0, True)
    assert dram.total_requests == 1
    assert dram.total_row_hits == 0
    assert dram.drain_window_ns() > 0.0
    dram.request(SAME_BANK_STRIDE, True)  # same channel, bank and row
    assert dram.total_requests == 2
    assert dram.total_row_hits == 1


def test_average_latency_between_hit_and_miss():
    dram = DRAMTimingModel(DDR3_1600)
    dram.request(0)
    dram.request(64)
    latency = dram.average_latency_ns()
    assert DDR3_1600.row_hit_ns() <= latency <= DDR3_1600.row_miss_ns()


# -- the batched pass against the per-request model ---------------------------

#: (windows advanced before the request, row, block within the row).
#: Few rows and blocks, so requests often share a bank and a row; an
#: advance of 2 or more leaves a window empty.
request_streams = st.lists(
    st.tuples(
        st.sampled_from((0, 0, 0, 0, 1, 2)),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=63),
    ),
    max_size=120,
)

DRAM_CONFIGS = (
    DDR3_1600,
    DDR3_1867,
    DRAMConfig(channels=1, banks_per_channel=1),
    DRAMConfig(channels=4, banks_per_channel=2, row_bytes=1024),
)

#: On DDR3_1600, block b maps to channel b % 2 and bank (b // 2) % 8.
COVERING_STREAM = [
    (0, 0, 0),   # window 0: channel 0, bank 0 opens row 0
    (0, 0, 16),  # same channel, bank and row: a row hit
    (0, 0, 1),   # another channel: its bank 0 opens row 0
    (0, 1, 0),   # channel 0, bank 0 again, another row: a conflict
    (1, 1, 16),  # window 1: row 1 stayed open across the boundary
    (2, 1, 1),   # window 3 (window 2 empty): channel 1 still has row 0
]


def _per_request(config, addresses, windows, count):
    """Per-window (ns, requests, row hits, lifetime hit rate) from the
    per-request reference model."""
    model = DRAMTimingModel(config)
    service, requests, row_hits, rates = [], [], [], []
    position = 0
    for window in range(count):
        before = (model.total_requests, model.total_row_hits)
        while position < len(windows) and windows[position] == window:
            model.request(addresses[position])
            position += 1
        requests.append(model.total_requests - before[0])
        row_hits.append(model.total_row_hits - before[1])
        rates.append(model.row_hit_rate)
        service.append(model.drain_window_ns())
    return service, requests, row_hits, rates


@settings(max_examples=80, deadline=None)
@given(
    config=st.sampled_from(DRAM_CONFIGS),
    stream=request_streams,
    trailing=st.integers(min_value=0, max_value=2),
)
@example(config=DDR3_1600, stream=COVERING_STREAM, trailing=1)
def test_batched_accounting_matches_per_request_model(config, stream, trailing):
    addresses, windows = [], []
    window = 0
    for advance, row, block in stream:
        window += advance
        addresses.append(row * config.row_bytes + block * 64)
        windows.append(window)
    count = window + 1 + trailing
    batched = account_windows(
        config,
        np.array(addresses, dtype=np.uint64),
        np.array(windows, dtype=np.intp),
        count,
    )
    service, requests, row_hits, rates = _per_request(
        config, addresses, windows, count
    )
    assert batched.service_ns.tolist() == service
    assert batched.requests.tolist() == requests
    assert batched.row_hits.tolist() == row_hits
    assert batched.row_hit_rates().tolist() == rates


def test_covering_stream_exercises_every_case():
    """The pinned example above has row hits within and across windows,
    conflicts, several banks, an empty window and an empty tail."""
    addresses = np.array(
        [row * DDR3_1600.row_bytes + block * 64 for _, row, block in COVERING_STREAM],
        dtype=np.uint64,
    )
    batched = account_windows(DDR3_1600, addresses, np.array([0, 0, 0, 0, 1, 3]), 5)
    assert batched.requests.tolist() == [4, 1, 0, 1, 0]
    assert batched.row_hits.tolist() == [1, 1, 0, 0, 0]
    assert batched.service_ns[2] == batched.service_ns[4] == 0.0
