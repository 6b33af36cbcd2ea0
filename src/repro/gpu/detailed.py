"""Event-driven detailed GPU timing model.

The windowed model (:mod:`repro.gpu.timing`) integrates throughput
bounds; this model walks one LLC replay's record (per-access outcome
plus dirty victims, :func:`repro.sim.offline.replay`) through explicit
queueing state — per-thread-context availability, a bounded pool of
outstanding misses (MSHRs), per-bank DRAM service with open-row
tracking, and per-channel data-bus occupancy — the machinery a detailed
simulator like the paper's in-house one resolves cycle by cycle.

Each LLC access is issued by one of the GPU's thread contexts
(round-robin over *warps* of consecutive accesses, modeling the quads a
shader core keeps in flight).  A context performs some compute, issues
its access, and for reads blocks until the data returns; an LLC miss
additionally occupies an MSHR from issue to fill.  Frame time is when
the last context drains.

The model is deliberately still analytic — no event heap, one pass over
the trace with O(1) state per resource — so it stays fast enough to run
inside experiments, yet exhibits queueing effects the windowed model
cannot: MSHR saturation, bank conflicts, and burstiness.
"""

from __future__ import annotations

import dataclasses
import heapq
from typing import List, Optional, Tuple

from repro.cache.llc import HIT, MISS
from repro.config import SystemConfig
from repro.gpu.shader import SHADER_EFFICIENCY, WORK_FLOPS_PER_ACCESS
from repro.sim.offline import PolicyLike, check_record, replay
from repro.sim.results import Replay
from repro.trace.record import Trace
from repro.utils.bitops import ilog2

#: Consecutive accesses issued by one thread context before rotating —
#: roughly the memory operations of one shaded quad.
WARP_ACCESSES = 4

#: Outstanding misses supported per LLC bank (MSHR pool).
MSHRS_PER_BANK = 32


@dataclasses.dataclass
class DetailedTiming:
    """Outcome of one detailed-model run."""

    policy: str
    frame_ns: float
    accesses: int
    misses: int
    #: Fraction of issue attempts that found every MSHR busy.
    mshr_stall_fraction: float
    #: DRAM row-buffer hit rate observed by misses.
    row_hit_rate: float
    scale: float = 1.0

    @property
    def fps(self) -> float:
        return 1e9 / self.frame_ns if self.frame_ns > 0 else 0.0

    @property
    def fps_full_scale(self) -> float:
        if self.frame_ns <= 0:
            return 0.0
        return 1e9 / (self.frame_ns / (self.scale * self.scale))

    def speedup_over(self, baseline: "DetailedTiming") -> float:
        return baseline.frame_ns / self.frame_ns


class DetailedGPUSimulator:
    """Replays LLC traces through the queueing model."""

    def __init__(self, system: SystemConfig) -> None:
        self.system = system

    def run(self, trace: Trace, record: Replay) -> DetailedTiming:
        """Model one frame from ``record``, ``trace``'s replay on this
        system's LLC (:func:`~repro.sim.offline.replay`)."""
        system = self.system
        gpu, dram = system.gpu, system.dram
        check_record(record, trace)
        stats = record.result.stats

        flops_per_ns = gpu.peak_tflops * 1e3 * SHADER_EFFICIENCY
        contexts = gpu.thread_contexts
        llc_hit_ns = gpu.llc_latency_ns
        cycle_ns = dram.cycle_ns
        row_hit_ns = dram.row_hit_ns()
        row_miss_ns = dram.row_miss_ns()
        transfer_ns = dram.transfer_cycles * cycle_ns

        channel_bits = ilog2(dram.channels)
        bank_mask = dram.banks_per_channel - 1
        row_shift = ilog2(dram.row_bytes)

        #: Next-free time per thread context (a min-heap: issuing on the
        #: earliest-available context models greedy warp scheduling).
        context_free: List[float] = [0.0] * contexts
        heapq.heapify(context_free)
        #: Next-free time per (channel, bank) and per channel data bus.
        bank_free = [
            [0.0] * dram.banks_per_channel for _ in range(dram.channels)
        ]
        bus_free = [0.0] * dram.channels
        open_row = [
            [-1] * dram.banks_per_channel for _ in range(dram.channels)
        ]
        #: Completion times of in-flight misses (bounded MSHR pool).
        mshrs: List[float] = []
        mshr_capacity = MSHRS_PER_BANK * system.llc.banks

        def serve(address: int, issue: float) -> Tuple[float, bool]:
            """Serve one block at its bank from ``issue`` on; returns the
            completion time and whether the row was already open."""
            block = address >> 6
            channel = block & (dram.channels - 1)
            bank = (block >> channel_bits) & bank_mask
            row = address >> row_shift
            start = max(issue, bank_free[channel][bank], bus_free[channel])
            row_hit = open_row[channel][bank] == row
            open_row[channel][bank] = row
            done = start + (row_hit_ns if row_hit else row_miss_ns)
            bank_free[channel][bank] = done
            bus_free[channel] = max(bus_free[channel], start) + transfer_ns
            return done, row_hit

        addresses = trace.addresses.tolist()
        streams = trace.streams.tolist()
        writes = trace.writes.tolist()
        outcomes = record.outcomes.tolist()
        victims = record.victim_by_access()

        finish_time = 0.0
        mshr_stalls = 0
        row_hits = 0
        warp_ready = 0.0
        position_in_warp = 0

        for index in range(len(addresses)):
            address = addresses[index]
            stream = streams[index]
            write = writes[index]
            if position_in_warp == 0:
                # Rotate to the earliest-free context for the next warp.
                warp_ready = heapq.heappop(context_free)
            position_in_warp = (position_in_warp + 1) % WARP_ACCESSES

            compute_ns = WORK_FLOPS_PER_ACCESS[stream] / flops_per_ns
            issue = warp_ready + compute_ns
            outcome = outcomes[index]

            if outcome == HIT:
                done = issue + llc_hit_ns
            else:
                # Reads (misses and bypasses) go to DRAM; an LLC miss
                # also needs a free MSHR.
                if outcome == MISS:
                    while len(mshrs) >= mshr_capacity:
                        released = heapq.heappop(mshrs)
                        if released > issue:
                            mshr_stalls += 1
                            issue = released
                done, row_hit = serve(address, issue)
                row_hits += row_hit
                if outcome == MISS:
                    heapq.heappush(mshrs, done)
                done += llc_hit_ns

            victim_address = victims.get(index)
            if victim_address is not None:
                # A dirty eviction drains to DRAM as a posted write at
                # its true victim address (no context blocking).
                serve(victim_address, issue)

            if write and outcome != HIT:
                # Posted writes do not block the context.
                done = issue + llc_hit_ns
            warp_ready = max(warp_ready, done if not write else issue)
            if position_in_warp == 0:
                heapq.heappush(context_free, warp_ready)
            finish_time = max(finish_time, done)

        # Drain the contexts still holding partial warps.
        if position_in_warp != 0:
            heapq.heappush(context_free, warp_ready)
        while context_free:
            finish_time = max(finish_time, heapq.heappop(context_free))

        total_memory_ops = max(1, stats.misses + stats.bypasses)
        return DetailedTiming(
            policy=record.result.policy,
            frame_ns=finish_time,
            accesses=len(trace),
            misses=stats.misses,
            mshr_stall_fraction=mshr_stalls / max(1, stats.misses),
            row_hit_rate=row_hits / total_memory_ops,
            scale=float(trace.meta.get("scale", system.scale or 1.0)),
        )


def simulate_frame_detailed(
    trace: Trace, policy: PolicyLike, system: Optional[SystemConfig] = None
) -> DetailedTiming:
    """Replay ``trace`` under ``policy`` on ``system``'s LLC, then model
    the frame with :class:`DetailedGPUSimulator`."""
    system = system or SystemConfig()
    return DetailedGPUSimulator(system).run(
        trace, replay(trace, policy, system.llc)
    )
