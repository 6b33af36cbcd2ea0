"""Array-backed fast LLC replay engine.

The reference engine (:mod:`repro.cache.llc`) dispatches every access
through policy hook methods and a mutable :class:`AccessContext`; this
package instead pre-decodes the trace once (:mod:`repro.fastsim.decode`)
and replays it through one *specialized* per-policy loop
(:mod:`repro.fastsim.kernels`) over flat state arrays — the classic
array-backed simulator structure of the SHiP/DRRIP artifact lineage.
The kernels mirror the policies' transitions and keep only policy
state; every statistic is derived from the replay record afterwards
(the RT bit's productions and consumptions by
:func:`repro.sim.epochs.rt_transitions`).  The results are
byte-identical to the reference engine's, which counts the same
statistics online: CI enforces it (the ``engine-equivalence`` job) and
``tests/test_fastsim.py`` property-checks it on random traces.

Use :func:`repro.fastsim.dispatch.choose_engine` to pick an engine and
:func:`repro.fastsim.engine.fast_simulate_trace` to run one; most
callers go through :func:`repro.sim.offline.simulate_trace` with
``engine="auto"`` and never touch this package directly.
"""

from repro.fastsim.dispatch import (
    ENGINE_AUTO,
    ENGINE_FAST,
    ENGINE_REFERENCE,
    ENGINES,
    choose_engine,
)
from repro.fastsim.engine import fast_simulate_trace

__all__ = [
    "ENGINE_AUTO",
    "ENGINE_FAST",
    "ENGINE_REFERENCE",
    "ENGINES",
    "choose_engine",
    "fast_simulate_trace",
]
