"""Policy registry: construct any evaluated policy from its name.

Names match Table 6 of the paper (lower-cased):

``drrip``, ``nru``, ``ship-mem``, ``gs-drrip``, ``gspztc``,
``gspztc+tse``, ``gspc``, plus the baselines ``lru``, ``srrip``,
``brrip``, ``belady``, the four-bit variants ``drrip4`` / ``gs-drrip4``
(Figure 14), and a ``+ucd`` suffix on any name for the uncached
displayable color variant (e.g. ``gspc+ucd``, ``drrip+ucd``).

A name may also set one integer constructor parameter of its policy,
``base(key=value)`` before any ``+ucd``: ``gspztc(t=4)``,
``gspztc(counter_bits=6)+ucd``.  A value equal to the constructor's
default is dropped from the resolved name, so ``gspztc(t=8)`` is
``gspztc``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import re
from typing import Callable, Dict, FrozenSet, Tuple, Union

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
from repro.core.ship import SHiPMemPolicy
from repro.core.srrip import SRRIPPolicy
from repro.errors import PolicyError, ReproError
from repro.streams import Stream

UCD_SUFFIX = "+ucd"

#: ``base(key=value)``: one parameter, a non-negative int.
_PARAMETER_RE = re.compile(r"[^()]+\((?P<key>\w+)=(?P<value>\d+)\)")

_FACTORIES: Dict[str, Tuple[Callable[..., ReplacementPolicy], str]] = {
    "nru": (NRUPolicy, "Single-bit not-recently-used"),
    "lru": (LRUPolicy, "True least-recently-used"),
    "srrip": (SRRIPPolicy, "Static re-reference interval prediction"),
    "brrip": (BRRIPPolicy, "Bimodal re-reference interval prediction"),
    "bip": (BIPPolicy, "Bimodal insertion policy (recency stack)"),
    "dip": (DIPPolicy, "Dynamic insertion policy (LRU vs BIP dueling)"),
    "drrip": (DRRIPPolicy, "Dynamic re-reference interval prediction"),
    "drrip4": (
        lambda **kw: DRRIPPolicy(rrpv_bits=4, **kw),
        "Four-bit DRRIP (iso-overhead study)",
    ),
    "gs-drrip": (GSDRRIPPolicy, "Graphics stream-aware DRRIP"),
    "gs-drrip4": (
        lambda **kw: GSDRRIPPolicy(rrpv_bits=4, **kw),
        "Four-bit graphics stream-aware DRRIP",
    ),
    "ship-mem": (SHiPMemPolicy, "Memory signature-based hit prediction"),
    "belady": (BeladyPolicy, "Belady's optimal policy (offline)"),
    "gspztc": (
        GSPZTCPolicy,
        "Graphics stream-aware probabilistic Z and texture caching",
    ),
    "gspztc+tse": (GSPZTCTSEPolicy, "GSPZTC with texture sampler epochs"),
    "gspc": (GSPCPolicy, "Graphics stream-aware probabilistic caching"),
    "gspc+bypass": (
        GSPCBypassPolicy,
        "GSPC extension: bypass probably-dead texture fills",
    ),
}


@dataclasses.dataclass(frozen=True)
class PolicySpec:
    """A resolved policy name: how to build it and how to run it."""

    name: str
    base_name: str
    description: str
    #: Streams that bypass the LLC entirely (the UCD variants).
    uncached_streams: FrozenSet[Stream]
    factory: Callable[..., ReplacementPolicy]

    def build(self, **kwargs: object) -> ReplacementPolicy:
        policy = self.factory(**kwargs)
        policy.name = self.name
        return policy


def _int_parameters(factory: Callable[..., ReplacementPolicy]) -> Dict[str, int]:
    """The keyword parameters with an int default that ``factory`` takes."""
    return {
        key: parameter.default
        for key, parameter in inspect.signature(factory).parameters.items()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
        and type(parameter.default) is int
    }


def policy_spec(name: str) -> PolicySpec:
    """Resolve a policy name: ``base``, or ``base(key=value)`` setting
    one int constructor parameter, either optionally ``+ucd``-suffixed."""
    key = name.strip().lower()
    uncached: FrozenSet[Stream] = frozenset()
    description_suffix = ""
    if key.endswith(UCD_SUFFIX):
        key = key[: -len(UCD_SUFFIX)]
        uncached = frozenset({Stream.DISPLAY})
        description_suffix = " with uncached displayable color"
    base = key.partition("(")[0]
    if base not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise PolicyError(f"unknown policy {name!r}; known policies: {known}")
    factory, description = _FACTORIES[base]
    if key != base:
        factory, key = _bind_parameter(name, key, base, factory)
    return PolicySpec(
        name=key + (UCD_SUFFIX if uncached else ""),
        base_name=base,
        description=description + description_suffix,
        uncached_streams=uncached,
        factory=factory,
    )


def _bind_parameter(
    name: str, key: str, base: str, factory: Callable[..., ReplacementPolicy]
) -> Tuple[Callable[..., ReplacementPolicy], str]:
    """``(factory, resolved name)`` for a ``base(key=value)`` name."""
    defaults = _int_parameters(factory)
    if not defaults:
        raise PolicyError(f"policy {name!r}: {base} takes no parameters")
    accepted = ", ".join(sorted(defaults))
    match = _PARAMETER_RE.fullmatch(key)
    if match is None:
        raise PolicyError(
            f"malformed policy name {name!r}: expected {base}(key=value) with "
            f"one non-negative int value; {base} accepts: {accepted}"
        )
    parameter, value = match["key"], int(match["value"])
    if parameter not in defaults:
        raise PolicyError(
            f"unknown parameter {parameter!r} in policy {name!r}; "
            f"{base} accepts: {accepted}"
        )
    try:
        factory(**{parameter: value})
    except ReproError as exc:
        raise PolicyError(f"invalid policy {name!r}: {exc}") from exc
    if value == defaults[parameter]:
        return factory, base
    return (
        functools.partial(factory, **{parameter: value}),
        f"{base}({parameter}={value})",
    )


#: Anything the simulators accept as a policy argument.
PolicyLike = Union[str, ReplacementPolicy]


def resolve_policy(policy: PolicyLike) -> "Tuple[ReplacementPolicy, FrozenSet[Stream]]":
    """Resolve a name or instance into ``(instance, uncached streams)``.

    The shared front door of both simulation engines: a registry name
    (``"gspc+ucd"``) resolves through :func:`policy_spec`, whose ``+ucd``
    suffix is the only source of uncached streams, and a ready policy
    instance passes through, caching every stream.
    """
    if isinstance(policy, str):
        spec = policy_spec(policy)
        return spec.build(), spec.uncached_streams
    return policy, frozenset()


def make_policy(name: str, **kwargs: object) -> ReplacementPolicy:
    """Build a policy instance by name (ignores the UCD suffix's bypass —
    use :func:`policy_spec` when running a simulation)."""
    return policy_spec(name).build(**kwargs)


def available_policies() -> Tuple[str, ...]:
    """All registered base policy names (each also accepts ``+ucd``)."""
    return tuple(sorted(_FACTORIES))
