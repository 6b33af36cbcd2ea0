"""The offline LLC simulator.

Replays a trace of LLC accesses through an :class:`~repro.cache.llc.LLC`
driven by a named policy — the exact methodology of the paper: "All the
results presented in this section are generated by an offline cache
simulator ... The offline model digests the LLC load/store access trace".
"""

from __future__ import annotations

import array
import time
from typing import Dict, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import LLC
from repro.config import LLCConfig
from repro.core.base import NEVER
from repro.core.registry import PolicyLike, resolve_policy
from repro.core.rrip import RRIPPolicy
from repro.errors import SimulationError
from repro.obs.spans import SpanRecorder
from repro.sim.future import next_use_indices
from repro.sim.results import Replay, SimResult
from repro.streams import StreamClass
from repro.trace.record import Trace

__all__ = [
    "PolicyLike",
    "RecordKeeper",
    "build_llc",
    "check_record",
    "replay",
    "simulate_trace",
]


def build_llc(
    policy: PolicyLike, llc_config: Optional[LLCConfig] = None, writeback_sink=None
) -> LLC:
    """Construct an LLC ready to digest a trace."""
    instance, uncached = resolve_policy(policy)
    geometry = CacheGeometry.from_config(llc_config or LLCConfig())
    return LLC(
        geometry, instance, uncached_streams=uncached, writeback_sink=writeback_sink
    )


def simulate_trace(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    observer=None,
    spans: Optional[SpanRecorder] = None,
    engine: str = "auto",
) -> SimResult:
    """Replay ``trace`` under ``policy`` and collect statistics.

    ``policy`` is a registry name (``"gspc+ucd"``; its ``+ucd`` suffix
    keeps displayable color out of the LLC) or a bound-ready policy
    instance, which caches every stream.  Belady's OPT automatically
    receives precomputed next-use information.  ``spans``, if given,
    records the setup/replay phase breakdown into the caller's
    :class:`~repro.obs.spans.SpanRecorder`.

    ``observer``, if given, is called once after the replay as
    ``observer.observe(trace, record, geometry)`` with the run's
    :class:`~repro.sim.results.Replay` record (see :class:`RecordKeeper`,
    through which :func:`replay` keeps it, and
    :class:`~repro.sim.epochs.EpochTracker`).

    ``engine`` selects the replay implementation: ``"reference"`` (this
    module's hook-driven engine), ``"fast"`` (the specialized kernels
    of :mod:`repro.fastsim`; raises when the policy has no kernel), or
    ``"auto"`` (the default — fast whenever applicable, identical
    results either way; see ``docs/performance.md``).
    """
    # Imported lazily: repro.fastsim pulls in repro.sim submodules, so a
    # module-level import would cycle through the package __init__.
    from repro.fastsim.dispatch import ENGINE_FAST, choose_engine
    from repro.fastsim.engine import fast_simulate_trace

    if choose_engine(engine, policy) == ENGINE_FAST:
        return fast_simulate_trace(
            trace, policy, llc_config, spans=spans, observer=observer
        )
    record = _reference(trace, policy, llc_config, spans)
    if observer is not None:
        geometry = CacheGeometry.from_config(llc_config or LLCConfig())
        observer.observe(trace, record, geometry)
    return record.result


class RecordKeeper:
    """Observer that keeps the :class:`~repro.sim.results.Replay` record
    of the run it observes."""

    def __init__(self) -> None:
        self.record: Optional[Replay] = None

    def observe(self, trace: Trace, record: Replay, geometry) -> None:
        self.record = record


def replay(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    spans: Optional[SpanRecorder] = None,
    engine: str = "auto",
) -> Replay:
    """Replay ``trace`` once and keep what the LLC did to every access.

    :func:`simulate_trace` with a :class:`RecordKeeper` observer: the
    returned :class:`~repro.sim.results.Replay` carries the same
    :class:`~repro.sim.results.SimResult` plus the per-access outcome
    codes and the ordered dirty victims — all a timing model, miss
    classifier or epoch pass needs, so none of them runs its own LLC.
    ``engine`` resolves as in :func:`simulate_trace`; both engines
    return identical records.
    """
    keeper = RecordKeeper()
    simulate_trace(
        trace, policy, llc_config, observer=keeper, spans=spans, engine=engine
    )
    return keeper.record


def check_record(record: Replay, trace: Trace) -> None:
    """Raise :class:`~repro.errors.SimulationError` unless ``record``
    covers as many accesses as ``trace``."""
    if len(record.outcomes) != len(trace):
        raise SimulationError(
            f"replay record of {record.result.policy!r} over "
            f"{len(record.outcomes)} accesses does not match a trace "
            f"of {len(trace)}"
        )


def _reference(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    spans: Optional[SpanRecorder] = None,
) -> Replay:
    """The reference engine: one hook-driven ``LLC.access`` per access."""
    if spans is None:
        spans = SpanRecorder()
    # Evicting access index -> dirty victim address, in eviction order
    # (an access evicts at most one block).
    victims: Dict[int, int] = {}
    llc = build_llc(policy, llc_config, victims.__setitem__)
    # Setup covers the array conversions and the next-use precompute —
    # separate from replay so Belady runs don't report inflated replay
    # time (the precompute alone can dominate).
    setup_started = time.perf_counter()
    with spans.span("setup"):
        addresses = trace.addresses.tolist()
        streams = trace.streams.tolist()
        writes = trace.writes.tolist()
        if llc.policy.needs_future:
            next_uses = next_use_indices(
                trace.block_addresses(llc.geometry.block_bytes)
            ).tolist()
        else:
            next_uses = None
    setup_seconds = time.perf_counter() - setup_started
    access = llc.access
    outcomes = array.array("b")
    record = outcomes.append
    replay_started = time.perf_counter()
    with spans.span("replay"):
        if next_uses is not None:
            for address, stream, write, next_use in zip(
                addresses, streams, writes, next_uses
            ):
                record(access(address, stream, write, next_use))
        else:
            for address, stream, write in zip(addresses, streams, writes):
                record(access(address, stream, write, NEVER))
    replay_seconds = time.perf_counter() - replay_started
    result = SimResult(
        policy=llc.policy.name,
        stats=llc.stats,
        accesses=len(trace),
        setup_seconds=setup_seconds,
        replay_seconds=replay_seconds,
        trace_meta=dict(trace.meta),
    )
    if isinstance(llc.policy, RRIPPolicy):
        # Figure 8 needs the fraction of RT/TEX fills at the distant RRPV.
        result.extras["fill_distant_fraction"] = {
            sclass.name: llc.policy.fill_fraction_at(
                int(sclass), llc.policy.distant_rrpv
            )
            for sclass in StreamClass
        }
    resident = np.array(
        sorted(block for lookup in llc._lookup for block in lookup), dtype=np.uint64
    )
    return Replay(
        result=result,
        outcomes=np.frombuffer(outcomes, dtype=np.int8),
        victim_indices=np.array(list(victims), dtype=np.int64),
        victim_addresses=np.array(list(victims.values()), dtype=np.uint64),
        resident_addresses=resident << np.uint64(llc.geometry.block_bits),
    )
