"""Specialized per-policy replay kernels, generated from one template.

The reference engine pays, per access, an ``AccessContext`` refresh,
several method dispatches, and a per-set dict lookup.  Each kernel here
is a single generated function: the engine's hit/fill/evict bookkeeping
inlined into one loop, with the policy's state transitions substituted
at the marked points and all state held in flat Python lists plus one
global ``{block: slot}`` dict (a block address determines its set, so
one dict replaces the per-set lookups).  Generating every kernel from
the same template keeps the engine semantics single-source — a policy
only contributes its ``setup`` / ``on hit`` / ``select victim`` /
``on fill`` snippets, mirroring the hook interface of
:class:`~repro.core.base.ReplacementPolicy` line for line.

Victim-selection snippets must leave the chosen slot in ``slot``;
``base`` is the set's first slot and ``end`` the one past its last.
They lean on C-level list primitives — ``list.index`` with bounds,
``min``/``max`` over a slice, slice assignment — instead of Python
``for`` loops, which is where most of the engine's speedup comes from
on miss-heavy traces.  Stream-class constants are inlined: ``0`` is Z,
``1`` is TEX, ``2`` is RT (:data:`repro.streams.StreamClass`).

Every kernel also returns its replay record (outcome codes, dirty
victims and the blocks left resident, see
:class:`~repro.sim.results.Replay`), written on the hit path and at the
one eviction site; the engine derives per-stream counts, fills,
evictions, DRAM traffic and write-backs from it.

The GSPC family (``gspztc``, ``gspztc_tse``, ``gspc``) adds per-bank
saturating counters and a per-line epoch state array on top of the
RRIP substrate; those kernels additionally consume the pre-decoded
``bank`` / ``sample`` columns (see :mod:`repro.fastsim.decode`).
"""

from __future__ import annotations

import string
import textwrap
from typing import Callable, Dict, Tuple

from repro.core.base import NEVER
from repro.core.brrip import BIMODAL_PERIOD
from repro.core.dueling import leader_roles
from repro.core.gspc import LOW_FACTOR, MID_FACTOR
from repro.core.gspc_base import ProbabilisticStreamPolicy
from repro.core.rrip import RRIPPolicy
from repro.errors import SimulationError

_TEMPLATE = string.Template("""\
def replay(blocks, bases, sclasses, writes, next_uses,
           banks, samples, num_sets, ways, params):
    total_slots = num_sets * ways
    lookup = {}
    lookup_get = lookup.get
    # Per-set state is indexed by the set's base slot (set * ways, as
    # pre-decoded into ``bases``) so the loop never multiplies.
    filled = [0] * total_slots
    tags = [0] * total_slots
    dirty = [False] * total_slots
    rt = [False] * total_slots
${setup}
    tex_inter = 0
    tex_intra = 0
    rt_prod = 0
    rt_cons = 0
    # The replay record: every access starts as MISS (0) and hits flip
    # to HIT (1); dirty victims keep the evicting access's position.
    outcomes = bytearray(len(blocks))
    victim_at = []
    victim_blocks = []
    for index, ${loop_vars} in zip(range(len(blocks)), ${loop_srcs}):
        slot = lookup_get(block)
        if slot is not None:
            outcomes[index] = 1
${hit_body}
            continue
        count = filled[base]
        if count < ways:
            slot = base + count
            filled[base] = count + 1
        else:
            end = base + ways
${select_victim}
            if dirty[slot]:
                victim_at.append(index)
                victim_blocks.append(tags[slot])
            del lookup[tags[slot]]
        lookup[block] = slot
        tags[slot] = block
        dirty[slot] = write
        if sclass == 2:
            rt[slot] = True
            rt_prod += 1
        else:
            rt[slot] = False
${on_fill}
    return {
        "resident": list(lookup),
        "tex_inter_hits": tex_inter,
        "tex_intra_hits": tex_intra,
        "rt_produced": rt_prod,
        "rt_consumed": rt_cons,
        "fill_counts": ${fill_counts},
        "outcomes": outcomes,
        "victim_at": victim_at,
        "victim_blocks": victim_blocks,
    }
""")

# Default hit body: the engine's inter-stream (RT-bit) bookkeeping
# followed by the policy's ``on hit`` snippet.  A spec may instead
# provide a full ``hit_body`` that fuses both into one stream-class
# dispatch — the GSPC kernels do, so the hot hit path pays a single
# branch tree instead of two sequential ones.
_DEFAULT_HIT_BODY = string.Template("""\
if sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
elif sclass == 2 and not rt[slot]:
    rt[slot] = True
    rt_prod += 1
if write:
    dirty[slot] = True
${on_hit}
""")

# RRPVs are stored *relative* to a per-set aging offset: the effective
# RRPV of a block is ``rrpv[slot] + age[base]``.  The reference engine's
# aging step adds (max - oldest) to every block in the set, which the
# offset absorbs in O(1) — orderings inside a set are unchanged because
# the offset is common to all its blocks.
_RRIP_SETUP = """\
max_rrpv = params["max_rrpv"]
long_rrpv = max_rrpv - 1
rrpv = [max_rrpv] * total_slots
age = [0] * total_slots
fill_counts = [[0] * (max_rrpv + 1) for _ in range(4)]
"""

# First way at the maximal effective RRPV wins.  After the reference
# engine's aging the set maximum is exactly ``max_rrpv``, so the new
# offset is always ``max_rrpv - oldest_stored`` (a no-op when the set
# already held a saturated block).
_RRIP_VICTIM = """\
seg = rrpv[base:end]
oldest = max(seg)
slot = base + seg.index(oldest)
age[base] = max_rrpv - oldest
"""

_LRU_TOUCH = """\
clock = clocks[base] + 1
clocks[base] = clock
stamps[slot] = clock
"""

# DRRIP fill: leader misses move PSEL first, then the set's role (or
# the duel winner, for followers) picks SRRIP or BRRIP insertion.
# Roles: 1 = SRRIP leader, 2 = BRRIP leader, 0 = follower.
_DRRIP_FILL = """\
role = roles_by_base[base]
if role == 1:
    if psel < psel_max:
        psel += 1
    value = long_rrpv
elif role == 2:
    if psel > 0:
        psel -= 1
    fill_tick += 1
    if fill_tick >= bimodal_period:
        fill_tick = 0
        value = long_rrpv
    else:
        value = max_rrpv
elif psel > psel_mid:
    fill_tick += 1
    if fill_tick >= bimodal_period:
        fill_tick = 0
        value = long_rrpv
    else:
        value = max_rrpv
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""

# -- GSPC family -------------------------------------------------------------
#
# The epoch/TSE state machine of the GSPC family (gspztc, gspztc+tse,
# gspc) compiles to the same flat shape as the baselines: one per-line
# ``pstate`` array holding the Figure-10 block state (0 = E0, 1 = E1,
# 2 = E>=2, 3 = RT), the relative-RRPV array of the RRIP substrate, and
# one flat saturating-counter list per (counter, bank).  Probabilistic
# insertion is a threshold compare against the live sampled counters —
# ``FILL > t * HIT`` — exactly the reference's ``_low_reuse``, so the
# replay stays deterministic and byte-identical.  Sample-set accesses
# additionally drive the per-bank ACC tick that halves every counter on
# saturation.  These kernels consume two extra per-access inputs,
# ``bank`` and ``sample``, pre-decoded from the set index.


def _inc(counter: str) -> str:
    """Saturating increment of one per-bank counter (``_inc``)."""
    return (
        f"if {counter}[bank] < counter_max:\n"
        f"    {counter}[bank] += 1"
    )


def _tick(counters: Tuple[str, ...]) -> str:
    """One sample-set ACC tick: halve every counter on saturation."""
    halves = "\n".join(f"    {name}[bank] >>= 1" for name in counters)
    return (
        "if acc[bank] >= acc_max:\n"
        f"{halves}\n"
        "    acc[bank] = 0\n"
        "else:\n"
        "    acc[bank] += 1"
    )


def _gspc_setup(counters: Tuple[str, ...]) -> str:
    lines = [
        _RRIP_SETUP.rstrip(),
        't = params["t"]',
        'counter_max = params["counter_max"]',
        'acc_max = params["acc_max"]',
        'acc = [0] * params["banks"]',
        "pstate = [0] * total_slots",
    ]
    lines.extend(f'{name} = [0] * params["banks"]' for name in counters)
    return "\n".join(lines)


_GSPZTC_COUNTERS = ("fill_z", "hit_z", "fill_tex", "hit_tex")

# Fused hit bodies: the engine's TEX/RT inter-stream bookkeeping and
# the policy's transitions dispatch on ``sclass`` once.  The class
# branches are mutually exclusive, so dispatch order is free to favor
# the cheap bookkeeping-free OTHER class; *within* each class the
# order matches the reference hooks exactly (tick before counter
# increments, counter reads before state updates).
_GSPZTC_HIT_BODY = f"""\
if sclass == 3:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
    rrpv[slot] = -age[base]
elif sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
        if pstate[slot] == 3:
{textwrap.indent(_inc("fill_tex"), "            ")}
        else:
{textwrap.indent(_inc("hit_tex"), "            ")}
    if pstate[slot] == 3:
        pstate[slot] = 0
    rrpv[slot] = -age[base]
elif sclass == 2:
    if not rt[slot]:
        rt[slot] = True
        rt_prod += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
    pstate[slot] = 3
    rrpv[slot] = -age[base]
else:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "        ")}
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = -age[base]
"""

_GSPZTC_ON_FILL = f"""\
pstate[slot] = 3 if sclass == 2 else 0
if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "    ")}
    if sclass == 0:
{textwrap.indent(_inc("fill_z"), "        ")}
    elif sclass == 1:
{textwrap.indent(_inc("fill_tex"), "        ")}
    value = long_rrpv
elif sclass == 0:
    value = max_rrpv if fill_z[bank] > t * hit_z[bank] else long_rrpv
elif sclass == 1:
    value = max_rrpv if fill_tex[bank] > t * hit_tex[bank] else 0
elif sclass == 2:
    value = 0
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""

_TSE_COUNTERS = ("fill_z", "hit_z", "fill_e0", "hit_e0", "fill_e1", "hit_e1")
_GSPC_COUNTERS = _TSE_COUNTERS + ("prod", "cons")


def _tse_hit_body(counters: Tuple[str, ...], rt_consumed: str = "") -> str:
    """Shared GSPZTC+TSE fused hit body; ``rt_consumed`` is GSPC's
    extra CONS count on an RT -> TEX consumption in a sample set."""
    consumed = (
        textwrap.indent(_inc(rt_consumed), "            ") + "\n"
        if rt_consumed
        else ""
    )
    return f"""\
if sclass == 3:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
    rrpv[slot] = -age[base]
elif sclass == 1:
    if rt[slot]:
        tex_inter += 1
        rt_cons += 1
        rt[slot] = False
    else:
        tex_intra += 1
    if write:
        dirty[slot] = True
    current = pstate[slot]
    if sample:
{textwrap.indent(_tick(counters), "        ")}
        if current == 3:
{textwrap.indent(_inc("fill_e0"), "            ")}
{consumed}\
            pstate[slot] = 0
        elif current == 0:
{textwrap.indent(_inc("hit_e0"), "            ")}
{textwrap.indent(_inc("fill_e1"), "            ")}
            pstate[slot] = 1
        elif current == 1:
{textwrap.indent(_inc("hit_e1"), "            ")}
            pstate[slot] = 2
        else:
            pstate[slot] = 2
        rrpv[slot] = -age[base]
    elif current == 3:
        rrpv[slot] = (
            max_rrpv if fill_e0[bank] > t * hit_e0[bank] else 0
        ) - age[base]
        pstate[slot] = 0
    elif current == 0:
        rrpv[slot] = (
            max_rrpv if fill_e1[bank] > t * hit_e1[bank] else 0
        ) - age[base]
        pstate[slot] = 1
    else:
        rrpv[slot] = -age[base]
        pstate[slot] = 2
elif sclass == 2:
    if not rt[slot]:
        rt[slot] = True
        rt_prod += 1
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
    pstate[slot] = 3
    rrpv[slot] = -age[base]
else:
    if write:
        dirty[slot] = True
    if sample:
{textwrap.indent(_tick(counters), "        ")}
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = -age[base]
"""


def _tse_on_fill(
    counters: Tuple[str, ...], rt_value: str, rt_produced: str = ""
) -> str:
    """Shared GSPZTC+TSE fill insertion; ``rt_value`` is the RT-fill
    RRPV snippet (static 0, or GSPC's PROD/CONS thresholds) and
    ``rt_produced`` is GSPC's PROD count on a sample-set RT fill."""
    produced = (
        "    elif sclass == 2:\n"
        + textwrap.indent(_inc(rt_produced), "        ")
        + "\n"
        if rt_produced
        else ""
    )
    return f"""\
pstate[slot] = 3 if sclass == 2 else 0
if sample:
{textwrap.indent(_tick(counters), "    ")}
    if sclass == 0:
{textwrap.indent(_inc("fill_z"), "        ")}
    elif sclass == 1:
{textwrap.indent(_inc("fill_e0"), "        ")}
{produced}\
    value = long_rrpv
elif sclass == 0:
    value = max_rrpv if fill_z[bank] > t * hit_z[bank] else long_rrpv
elif sclass == 1:
    value = max_rrpv if fill_e0[bank] > t * hit_e0[bank] else 0
elif sclass == 2:
{textwrap.indent(rt_value, "    ")}
else:
    value = long_rrpv
rrpv[slot] = value - age[base]
fill_counts[sclass][value] += 1
"""


# Table 5's dynamic render-target protection: the sampled CONS/PROD
# ratio picks distant (< 1/16), long (< 1/8), or maximal protection.
_GSPC_RT_VALUE = f"""\
prod_b = prod[bank]
cons_b = cons[bank]
if prod_b > {LOW_FACTOR} * cons_b:
    value = max_rrpv
elif prod_b > {MID_FACTOR} * cons_b:
    value = long_rrpv
else:
    value = 0
"""

_SPECS: Dict[str, Dict[str, object]] = {
    "nru": {
        "setup": (
            "referenced = [False] * total_slots\n"
            "clear_ways = [False] * ways"
        ),
        "on_hit": "referenced[slot] = True",
        "select_victim": """\
try:
    slot = referenced.index(False, base, end)
except ValueError:
    referenced[base:end] = clear_ways
    slot = base
""",
        "on_fill": "referenced[slot] = True",
    },
    "lru": {
        "setup": "stamps = [0] * total_slots\nclocks = [0] * total_slots",
        "on_hit": _LRU_TOUCH,
        "select_victim": """\
seg = stamps[base:end]
slot = base + seg.index(min(seg))
""",
        "on_fill": _LRU_TOUCH,
    },
    "srrip": {
        "setup": _RRIP_SETUP,
        "on_hit": "rrpv[slot] = -age[base]",
        "select_victim": _RRIP_VICTIM,
        "on_fill": (
            "rrpv[slot] = long_rrpv - age[base]\n"
            "fill_counts[sclass][long_rrpv] += 1"
        ),
        "fill_counts": True,
    },
    "drrip": {
        "setup": _RRIP_SETUP
        + """\
roles = params["roles"]
roles_by_base = [0] * total_slots
for set_i in range(num_sets):
    roles_by_base[set_i * ways] = roles[set_i]
psel = params["psel_midpoint"]
psel_mid = params["psel_midpoint"]
psel_max = params["psel_max"]
bimodal_period = params["bimodal_period"]
fill_tick = 0
""",
        "on_hit": "rrpv[slot] = -age[base]",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _DRRIP_FILL,
        "fill_counts": True,
    },
    "belady": {
        "setup": 'next_slot = [params["never"]] * total_slots',
        "on_hit": "next_slot[slot] = next_use",
        "select_victim": """\
seg = next_slot[base:end]
slot = base + seg.index(max(seg))
""",
        "on_fill": "next_slot[slot] = next_use",
        "needs_future": True,
    },
    "gspztc": {
        "setup": _gspc_setup(_GSPZTC_COUNTERS),
        "hit_body": _GSPZTC_HIT_BODY,
        "select_victim": _RRIP_VICTIM,
        "on_fill": _GSPZTC_ON_FILL,
        "fill_counts": True,
        "needs_bank": True,
    },
    "gspztc_tse": {
        "setup": _gspc_setup(_TSE_COUNTERS),
        "hit_body": _tse_hit_body(_TSE_COUNTERS),
        "select_victim": _RRIP_VICTIM,
        "on_fill": _tse_on_fill(_TSE_COUNTERS, "value = 0"),
        "fill_counts": True,
        "needs_bank": True,
    },
    "gspc": {
        "setup": _gspc_setup(_GSPC_COUNTERS),
        "hit_body": _tse_hit_body(_GSPC_COUNTERS, rt_consumed="cons"),
        "select_victim": _RRIP_VICTIM,
        "on_fill": _tse_on_fill(
            _GSPC_COUNTERS, _GSPC_RT_VALUE, rt_produced="prod"
        ),
        "fill_counts": True,
        "needs_bank": True,
    },
}

_COMPILED: Dict[str, Callable] = {}


def kernel_source(kind: str) -> str:
    """The generated source of one kernel (also kept on the function)."""
    if kind not in _SPECS:
        known = ", ".join(sorted(_SPECS))
        raise SimulationError(f"no fast kernel {kind!r}; known kernels: {known}")
    spec = _SPECS[kind]
    loop_vars = "block, base, sclass, write"
    loop_srcs = "blocks, bases, sclasses, writes"
    if spec.get("needs_future"):
        loop_vars += ", next_use"
        loop_srcs += ", next_uses"
    if spec.get("needs_bank"):
        loop_vars += ", bank, sample"
        loop_srcs += ", banks, samples"
    hit_body = spec.get("hit_body")
    if hit_body is None:
        hit_body = _DEFAULT_HIT_BODY.substitute(on_hit=str(spec["on_hit"]).rstrip())
    return _TEMPLATE.substitute(
        setup=textwrap.indent(str(spec["setup"]).rstrip(), " " * 4),
        hit_body=textwrap.indent(str(hit_body).rstrip(), " " * 12),
        select_victim=textwrap.indent(
            str(spec["select_victim"]).rstrip(), " " * 12
        ),
        on_fill=textwrap.indent(str(spec["on_fill"]).rstrip(), " " * 8),
        loop_vars=loop_vars,
        loop_srcs=loop_srcs,
        fill_counts="fill_counts" if spec.get("fill_counts") else "None",
    )


def kernel_for(kind: str) -> Callable:
    """Compile (once) and return the replay kernel named ``kind``."""
    kernel = _COMPILED.get(kind)
    if kernel is None:
        source = kernel_source(kind)
        namespace: Dict[str, object] = {}
        exec(compile(source, f"<fastsim-kernel:{kind}>", "exec"), namespace)
        kernel = namespace["replay"]
        kernel.__name__ = f"replay_{kind}"
        kernel.__source__ = source
        _COMPILED[kind] = kernel
    return kernel


def kernel_params(instance, geometry) -> Dict[str, object]:
    """Per-run parameters a kernel reads from its policy instance."""
    if isinstance(instance, ProbabilisticStreamPolicy):
        return {
            "max_rrpv": instance.max_rrpv,
            "t": instance.t,
            "counter_max": instance.counter_max,
            "acc_max": instance.acc_max,
            "banks": geometry.banks,
        }
    if isinstance(instance, RRIPPolicy):
        params: Dict[str, object] = {"max_rrpv": instance.max_rrpv}
        if hasattr(instance, "psel_bits"):  # DRRIP set-dueling state
            params.update(
                roles=leader_roles(
                    geometry.num_sets, target_leaders=instance.target_leaders
                ),
                psel_max=(1 << instance.psel_bits) - 1,
                psel_midpoint=1 << (instance.psel_bits - 1),
                bimodal_period=BIMODAL_PERIOD,
            )
        return params
    if getattr(instance, "needs_future", False):
        return {"never": NEVER}
    return {}
