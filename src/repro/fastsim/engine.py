"""The fast engine's ``simulate_trace`` and ``replay`` equivalents.

``fast_replay`` mirrors :func:`repro.sim.offline.replay`
observable-for-observable: the same ``setup``/``replay`` span names,
the same ``SimResult`` fields and stats, the same
``fill_distant_fraction`` extras for RRIP-family policies, and the same
per-access replay record.  ``fast_simulate_trace`` is its
``SimResult``, after handing the record to an optional observer as
:func:`repro.sim.offline.simulate_trace` does.  Both refuse (rather
than silently degrade) to run a policy without a kernel — engine
*selection* lives in :mod:`repro.fastsim.dispatch`.
"""

from __future__ import annotations

import time
from typing import FrozenSet, Optional

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.llc import BYPASS, HIT, MISS
from repro.cache.stats import LLCStats
from repro.config import LLCConfig
from repro.core.registry import PolicyLike, resolve_policy
from repro.core.rrip import RRIPPolicy
from repro.errors import SimulationError
from repro.fastsim.decode import decode_trace
from repro.fastsim.dispatch import kernel_kind
from repro.fastsim.kernels import kernel_columns, kernel_for, kernel_params
from repro.obs.spans import SpanRecorder
from repro.sim.epochs import rt_transitions
from repro.sim.results import Replay, SimResult
from repro.streams import ALL_STREAMS, Stream, StreamClass
from repro.trace.record import Trace


def fast_simulate_trace(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    spans: Optional[SpanRecorder] = None,
    observer=None,
) -> SimResult:
    """Replay ``trace`` under ``policy`` through the fast engine."""
    record = fast_replay(trace, policy, llc_config, spans)
    if observer is not None:
        geometry = CacheGeometry.from_config(llc_config or LLCConfig())
        observer.observe(trace, record, geometry)
    return record.result


def fast_replay(
    trace: Trace,
    policy: PolicyLike,
    llc_config: Optional[LLCConfig] = None,
    spans: Optional[SpanRecorder] = None,
) -> Replay:
    """:func:`fast_simulate_trace` plus the kernel's replay record.

    The kernel only sees the accesses ``decode_trace`` kept; the
    filtered (statically uncached) positions become ``BYPASS``, as do
    the fills a kernel's ``bypass`` hook vetoed, and the victims'
    replay positions map back to trace positions.
    """
    if spans is None:
        spans = SpanRecorder()
    instance, uncached = resolve_policy(policy)
    kind = kernel_kind(instance)
    if kind is None:
        raise SimulationError(
            f"policy {instance.name!r} has no fast kernel; "
            "route it through the reference engine"
        )
    geometry = CacheGeometry.from_config(llc_config or LLCConfig())
    kernel = kernel_for(kind)
    params = kernel_params(kind, instance, geometry)

    setup_started = time.perf_counter()
    with spans.span("setup"):
        decoded = decode_trace(trace, geometry, uncached, **kernel_columns(kind))
    # SHiP-mem's per-access column; every other kernel ignores it.
    params["signatures"] = decoded.signatures
    setup_seconds = time.perf_counter() - setup_started

    replay_started = time.perf_counter()
    with spans.span("replay"):
        counters = kernel(
            decoded.blocks,
            decoded.bases,
            decoded.sclasses,
            decoded.writes,
            decoded.next_uses,
            decoded.banks,
            decoded.samples,
            geometry.num_sets,
            geometry.ways,
            params,
        )
    replay_seconds = time.perf_counter() - replay_started

    outcomes = np.frombuffer(counters["outcomes"], dtype=np.int8)
    victim_indices = np.array(counters["victim_at"], dtype=np.int64)
    if decoded.kept is not None:
        replayed = outcomes
        outcomes = np.full(len(trace), BYPASS, dtype=np.int8)
        outcomes[decoded.kept] = replayed
        victim_indices = decoded.kept[victim_indices]
    victim_blocks = np.array(counters["victim_blocks"], dtype=np.uint64)
    victim_addresses = victim_blocks << np.uint64(geometry.block_bits)
    resident = np.sort(np.array(counters["resident"], dtype=np.uint64))

    result = SimResult(
        policy=instance.name,
        stats=_assemble_stats(
            counters, trace, outcomes, uncached, geometry.block_bits
        ),
        accesses=len(trace),
        setup_seconds=setup_seconds,
        replay_seconds=replay_seconds,
        trace_meta=dict(trace.meta),
    )
    if isinstance(instance, RRIPPolicy):
        result.extras["fill_distant_fraction"] = _fill_distant_fractions(
            counters["fill_counts"], instance.distant_rrpv
        )
    return Replay(
        result,
        outcomes,
        victim_indices,
        victim_addresses,
        resident << np.uint64(geometry.block_bits),
    )


def _assemble_stats(
    counters: dict,
    trace: Trace,
    outcomes: np.ndarray,
    uncached: FrozenSet[Stream],
    block_bits: int,
) -> LLCStats:
    """The counts the kernel's replay record implies.

    Every ``MISS`` filled and read DRAM, every fill past the resident
    blocks evicted one, and every write-back is one recorded dirty
    victim.  The RT bit's productions and consumptions are
    :func:`~repro.sim.epochs.rt_transitions`' masks; the consumptions
    are the inter-stream texture hits, and the other texture hits are
    intra-stream.  A ``BYPASS`` counts as :meth:`LLC.access
    <repro.cache.llc.LLC.access>` counts it: on a statically uncached
    stream it is a bypass, passed straight to DRAM as a read or a
    write; on any other stream the policy vetoed the fill, which is a
    miss that reads DRAM (and also writes it, for a write) but fills
    nothing.
    """
    stats = LLCStats()
    streams = trace.streams
    bypassed = outcomes == BYPASS
    hits, misses, bypasses, bypass_writes = (
        np.bincount(streams[mask], minlength=len(Stream)).tolist()
        for mask in (
            outcomes == HIT,
            outcomes == MISS,
            bypassed,
            bypassed & trace.writes,
        )
    )
    uncached_writes = 0
    for stream in ALL_STREAMS:
        per_stream = stats.per_stream[stream]
        per_stream.hits = hits[stream]
        per_stream.misses = misses[stream]
        if stream in uncached:
            per_stream.bypasses = bypasses[stream]
            uncached_writes += bypass_writes[stream]
        else:
            per_stream.misses += bypasses[stream]
    writebacks = len(counters["victim_at"])
    stats.fills = sum(misses)
    stats.evictions = stats.fills - len(counters["resident"])
    stats.writebacks = writebacks
    produced, consumed = rt_transitions(trace, outcomes, block_bits)
    stats.rt_produced = int(np.count_nonzero(produced))
    stats.rt_consumed = int(np.count_nonzero(consumed))
    stats.dram_reads = stats.fills + sum(bypasses) - uncached_writes
    stats.dram_writes = writebacks + sum(bypass_writes)
    return stats


def _fill_distant_fractions(fill_counts, distant_rrpv: int) -> dict:
    fractions = {}
    for sclass in StreamClass:
        counts = fill_counts[int(sclass)]
        total = sum(counts)
        fractions[sclass.name] = counts[distant_rrpv] / total if total else 0.0
    return fractions
