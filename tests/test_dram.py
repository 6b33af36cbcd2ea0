"""DRAM timing-model tests."""

import pytest

from repro.config import DDR3_1600, DDR3_1867, DRAMConfig
from repro.gpu.dram import DRAMTimingModel


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
