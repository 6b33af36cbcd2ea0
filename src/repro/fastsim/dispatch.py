"""Engine selection: which runs may take the fast replay path.

Every policy class the registry builds has a kernel: ``nru``, ``lru``,
``bip``, ``dip``, ``srrip``, ``brrip``, ``drrip`` (any RRPV width),
``gs-drrip`` (per-stream-class duels, any RRPV width), ``ship-mem``,
``belady``, and the paper's GSPC family — ``gspztc``, ``gspztc+tse``,
``gspc`` and ``gspc+bypass``.  So every name
:func:`~repro.core.registry.available_policies` lists runs on a kernel,
and only an ad-hoc policy instance whose exact class has no kernel (a
subclass overriding hooks, say) needs the reference engine.

``auto`` (the default everywhere) picks the fast engine exactly when it
is applicable and silently falls back otherwise, so results never
change with the engine knob: a registry name runs on a kernel, an
ad-hoc instance whose class has no kernel on the reference engine.
``fast`` is strict and raises when the run cannot take the fast path.
"""

from __future__ import annotations

from typing import Optional

from repro.core.base import ReplacementPolicy
from repro.core.belady import BeladyPolicy
from repro.core.brrip import BRRIPPolicy
from repro.core.dip import BIPPolicy, DIPPolicy
from repro.core.drrip import DRRIPPolicy
from repro.core.gs_drrip import GSDRRIPPolicy
from repro.core.gspc import GSPCPolicy
from repro.core.gspc_bypass import GSPCBypassPolicy
from repro.core.gspztc import GSPZTCPolicy
from repro.core.gspztc_tse import GSPZTCTSEPolicy
from repro.core.lru import LRUPolicy
from repro.core.nru import NRUPolicy
from repro.core.registry import PolicyLike, resolve_policy
from repro.core.ship import SHiPMemPolicy
from repro.core.srrip import SRRIPPolicy
from repro.errors import SimulationError

ENGINE_REFERENCE = "reference"
ENGINE_FAST = "fast"
ENGINE_AUTO = "auto"
#: Valid ``--engine`` values.
ENGINES = (ENGINE_REFERENCE, ENGINE_FAST, ENGINE_AUTO)

#: Exact policy classes with a specialized kernel, keyed to the kernel
#: name.  Exact type checks, not ``isinstance``: a subclass overrides
#: hooks its base's kernel has inlined (the bypass extension derives
#: from GSPC, DIP from BIP), so it needs a kernel of its own or the
#: reference path.
_KERNEL_OF_TYPE = {
    NRUPolicy: "nru",
    LRUPolicy: "lru",
    BIPPolicy: "bip",
    DIPPolicy: "dip",
    SRRIPPolicy: "srrip",
    BRRIPPolicy: "brrip",
    DRRIPPolicy: "drrip",
    GSDRRIPPolicy: "gs_drrip",
    SHiPMemPolicy: "ship_mem",
    BeladyPolicy: "belady",
    GSPZTCPolicy: "gspztc",
    GSPZTCTSEPolicy: "gspztc_tse",
    GSPCPolicy: "gspc",
    GSPCBypassPolicy: "gspc_bypass",
}


def kernel_kind(instance: ReplacementPolicy) -> Optional[str]:
    """The kernel name for a bound-ready policy instance, or ``None``."""
    return _KERNEL_OF_TYPE.get(type(instance))


def choose_engine(engine: str, policy: PolicyLike) -> str:
    """Resolve an ``--engine`` request into ``reference`` or ``fast``.

    Raises :class:`~repro.errors.SimulationError` for an unknown engine
    name, and for ``fast`` when the policy has no kernel.
    """
    if engine not in ENGINES:
        known = ", ".join(ENGINES)
        raise SimulationError(f"unknown engine {engine!r}; expected one of: {known}")
    if engine == ENGINE_REFERENCE:
        return ENGINE_REFERENCE
    instance, _ = resolve_policy(policy)
    covered = kernel_kind(instance) is not None
    if engine == ENGINE_FAST:
        if not covered:
            raise SimulationError(
                f"policy {instance.name!r} ({type(instance).__name__}) is not "
                "covered by the fast engine; use --engine auto or reference"
            )
        return ENGINE_FAST
    return ENGINE_FAST if covered else ENGINE_REFERENCE
