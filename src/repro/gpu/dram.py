"""DDR3 timing model.

Models what matters for the paper's performance figures: per-channel data
bus occupancy, row-buffer locality (row hits pay tCAS, row misses pay
tRP + tRCD + tCAS), and bank-level parallelism that overlaps row
preparation with data transfer.  Requests are accumulated per *window*
(the frame-time simulator integrates window by window); the model keeps
open-row state across windows.

:class:`DRAMTimingModel` accounts one request at a time;
:func:`account_windows` accounts a whole request stream in one NumPy
pass with the same arithmetic, and the per-request model is the
reference it is tested against.
"""

from __future__ import annotations

import dataclasses
from typing import List

import numpy as np

from repro.config import DRAMConfig
from repro.utils.bitops import ilog2


class DRAMTimingModel:
    """Window-based DDR timing with open-page row-buffer policy."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.channel_bits = ilog2(config.channels)
        # Channel interleaving on block address, banks on the next bits.
        self._bank_mask = config.banks_per_channel - 1
        self._row_shift = ilog2(config.row_bytes)
        #: Open row per (channel, bank); -1 = closed.
        self._open_row: List[List[int]] = [
            [-1] * config.banks_per_channel for _ in range(config.channels)
        ]
        self._reset_window()
        # Lifetime counters.
        self.total_requests = 0
        self.total_row_hits = 0

    def _reset_window(self) -> None:
        channels = self.config.channels
        self._data_cycles = [0.0] * channels
        self._prep_cycles = [0.0] * channels

    # -- request accounting -------------------------------------------------

    def request(self, address: int, is_write: bool = False) -> None:
        """Account one 64 B block transfer."""
        config = self.config
        block = address >> 6
        channel = block & (config.channels - 1)
        bank = (block >> self.channel_bits) & self._bank_mask
        row = address >> self._row_shift
        open_rows = self._open_row[channel]
        self.total_requests += 1
        if open_rows[bank] == row:
            self.total_row_hits += 1
            self._prep_cycles[channel] += config.tcas
        else:
            open_rows[bank] = row
            self._prep_cycles[channel] += config.trp + config.trcd + config.tcas
        self._data_cycles[channel] += config.transfer_cycles

    # -- window integration ----------------------------------------------------

    def drain_window_ns(self) -> float:
        """Service time of the window's requests; resets window state.

        Per channel, data-bus occupancy is a hard floor; row preparation
        overlaps across banks, so it only binds when it exceeds the data
        time even after being spread over half the banks (a typical
        achievable bank-level parallelism under an FR-FCFS scheduler).
        """
        config = self.config
        parallelism = max(1.0, config.banks_per_channel / 2)
        worst = 0.0
        for channel in range(config.channels):
            busy = max(
                self._data_cycles[channel],
                self._prep_cycles[channel] / parallelism,
            )
            worst = max(worst, busy)
        self._reset_window()
        return worst * config.cycle_ns

    @property
    def row_hit_rate(self) -> float:
        if self.total_requests == 0:
            return 0.0
        return self.total_row_hits / self.total_requests

    def average_latency_ns(self) -> float:
        """Typical single-request latency given observed row locality."""
        return average_latency_ns(self.config, self.row_hit_rate)


def average_latency_ns(config: DRAMConfig, row_hit_rate: float) -> float:
    """Typical single-request latency at a given row-hit rate."""
    hit = row_hit_rate
    return hit * config.row_hit_ns() + (1.0 - hit) * config.row_miss_ns()


@dataclasses.dataclass(frozen=True)
class DRAMWindows:
    """Per-window accounting of one request stream."""

    #: Service time of each window, as ``drain_window_ns`` returns it.
    service_ns: np.ndarray
    #: Requests and row hits in each window.
    requests: np.ndarray
    row_hits: np.ndarray

    def row_hit_rates(self) -> np.ndarray:
        """The lifetime :attr:`DRAMTimingModel.row_hit_rate` at each
        window's end (0.0 before the first request)."""
        requests = np.maximum(np.cumsum(self.requests), 1)
        return np.cumsum(self.row_hits) / requests


def account_windows(
    config: DRAMConfig, addresses: np.ndarray, windows: np.ndarray, count: int
) -> DRAMWindows:
    """:meth:`DRAMTimingModel.request` over a whole request stream, with
    :meth:`~DRAMTimingModel.drain_window_ns` at the end of each window.

    ``addresses`` are the requests' byte addresses in issue order and
    ``windows`` each request's window (non-decreasing, below ``count``).
    Rows stay open across windows, as in the per-request model.  Every
    DDR timing is an integer, so the per-channel cycle sums are exact
    in any order and equal the per-request model's.
    """
    addresses = np.asarray(addresses, dtype=np.uint64)
    windows = np.asarray(windows, dtype=np.intp)
    blocks = addresses >> np.uint64(6)
    channels = (blocks & np.uint64(config.channels - 1)).astype(np.intp)
    banks = (blocks >> np.uint64(ilog2(config.channels))) & np.uint64(
        config.banks_per_channel - 1
    )
    rows = addresses >> np.uint64(ilog2(config.row_bytes))
    # A request hits its row exactly when the previous request to its
    # (channel, bank) opened the same row.  A stable sort by bank keeps
    # each bank's requests in issue order, across window boundaries.
    slots = channels * config.banks_per_channel + banks.astype(np.intp)
    order = np.argsort(slots, kind="stable")
    by_slot, by_row = slots[order], rows[order]
    row_hit = np.zeros(len(addresses), dtype=bool)
    row_hit[order[1:]] = (by_slot[1:] == by_slot[:-1]) & (by_row[1:] == by_row[:-1])

    cells = windows * config.channels + channels
    size = count * config.channels
    data = np.bincount(cells, minlength=size) * config.transfer_cycles
    prep = np.bincount(
        cells,
        weights=np.where(
            row_hit, config.tcas, config.trp + config.trcd + config.tcas
        ),
        minlength=size,
    )
    parallelism = max(1.0, config.banks_per_channel / 2)
    busy = np.maximum(data, prep / parallelism).reshape(count, config.channels)
    return DRAMWindows(
        service_ns=busy.max(axis=1, initial=0.0) * config.cycle_ns,
        requests=np.bincount(windows, minlength=count),
        row_hits=np.bincount(windows[row_hit], minlength=count),
    )
