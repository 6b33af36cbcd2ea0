"""DDR3 timing model.

Models what matters for the paper's performance figures: per-channel data
bus occupancy, row-buffer locality (row hits pay tCAS, row misses pay
tRP + tRCD + tCAS), and bank-level parallelism that overlaps row
preparation with data transfer.  Requests are accumulated per *window*
(the frame-time simulator integrates window by window); the model keeps
open-row state across windows.
"""

from __future__ import annotations

from typing import List

from repro.config import DRAMConfig
from repro.utils.bitops import ilog2


class DRAMTimingModel:
    """Window-based DDR timing with open-page row-buffer policy."""

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config
        self.channel_bits = ilog2(config.channels)
        # Channel interleaving on block address, banks on the next bits.
        self._bank_mask = config.banks_per_channel - 1
        ilog2(config.banks_per_channel)
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
        config = self.config
        hit = self.row_hit_rate
        return hit * config.row_hit_ns() + (1.0 - hit) * config.row_miss_ns()
