"""Specialized per-policy replay kernels, generated from one template.

The reference engine pays, per access, an ``AccessContext`` refresh,
several method dispatches, and a per-set dict lookup.  Each kernel here
is a single generated function: the engine's hit/fill/evict bookkeeping
inlined into one loop, with the policy's state transitions substituted
at the marked points and all state held in flat Python lists plus one
global ``{block: slot}`` dict (a block address determines its set, so
one dict replaces the per-set lookups).  Generating every kernel from
the same template keeps the engine semantics single-source — a policy
only contributes its ``setup`` / ``on hit`` / ``bypass`` / ``select
victim`` / ``on evict`` / ``on fill`` snippets, mirroring the hook
interface of :class:`~repro.core.base.ReplacementPolicy` line for line.
The two optional hooks emit no source text when a policy leaves them
empty:

* ``bypass`` runs on a miss before anything is filled; to veto the
  fill it writes ``outcomes[index] = 2`` (``BYPASS``) and moves on to
  the next access with ``continue``.
* ``on evict`` runs after victim selection, before the victim leaves
  ``lookup``, with ``slot`` and ``base`` naming the victim and its set.

Victim-selection snippets must leave the chosen slot in ``slot``;
``base`` is the set's first slot and ``end`` the one past its last.
They lean on C-level list primitives instead of Python ``for`` loops:
NRU and the RRIP family search for a fixed value with one bounded
``list.index`` (the first unreferenced way, the first way at the
maximal RRPV), and fall back to a slice with ``max``/``index`` and a
slice assignment only when the set holds no such way; the LRU family
and Belady scan a slice with ``min``/``max`` and ``index``.
Stream-class constants are inlined: ``0`` is Z, ``1`` is TEX, ``2`` is
RT (:data:`repro.streams.StreamClass`).

Every kernel also returns its replay record (outcome codes, dirty
victims and the blocks left resident, see
:class:`~repro.sim.results.Replay`), written on the hit path and at the
one eviction site; the engine derives per-stream counts, fills,
evictions, DRAM traffic, write-backs and the RT bit's inter-stream
counts from it (:func:`repro.sim.epochs.rt_transitions`).  So a kernel
keeps only tags, dirty bits and its policy's state, and every kernel's
hit path is the template's: mark the outcome and the dirty bit, then
run the policy's ``on hit``.

The GSPC family (``gspztc``, ``gspztc_tse``, ``gspc``, ``gspc_bypass``)
adds per-bank saturating counters and a per-line epoch state array on
top of the RRIP substrate; those kernels additionally consume the
pre-decoded ``bank`` / ``sample`` columns, and ``ship_mem`` consumes a
pre-decoded signature-table index per access (see
:mod:`repro.fastsim.decode`).  Every policy class the registry builds
has a kernel here.
"""

from __future__ import annotations

import string
import textwrap
from typing import Callable, Dict, Tuple

from repro.core.base import NEVER
from repro.core.brrip import BIMODAL_PERIOD
from repro.core.dueling import leader_roles
from repro.core.gs_drrip import NUM_STREAM_CLASSES
from repro.core.gspc import LOW_FACTOR, MID_FACTOR
from repro.core import ship
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
${setup}
    # The replay record: every access starts as MISS (0) and hits flip
    # to HIT (1); dirty victims keep the evicting access's position.
    outcomes = bytearray(len(blocks))
    victim_at = []
    victim_blocks = []
    for index, ${loop_vars} in zip(range(len(blocks)), ${loop_srcs}):
        slot = lookup_get(block)
        if slot is not None:
            outcomes[index] = 1
            if write:
                dirty[slot] = True
${on_hit}
            continue
${bypass}\
        count = filled[base]
        if count < ways:
            slot = base + count
            filled[base] = count + 1
        else:
            end = base + ways
${select_victim}
${on_evict}\
            if dirty[slot]:
                victim_at.append(index)
                victim_blocks.append(tags[slot])
            del lookup[tags[slot]]
        lookup[block] = slot
        tags[slot] = block
        dirty[slot] = write
${on_fill}
    return {
        "resident": list(lookup),
        "fill_counts": ${fill_counts},
        "outcomes": outcomes,
        "victim_at": victim_at,
        "victim_blocks": victim_blocks,
    }
""")


def _indented(snippet: str, depth: int) -> str:
    return textwrap.indent(snippet.rstrip(), " " * depth)


# RRPVs are absolute, 0..``max_rrpv``, as in ``RRIPPolicy.rrpv``.  None
# ever exceeds ``max_rrpv``: fills insert at most there, hits write 0
# (or GSPC's distant ``max_rrpv``), and aging lifts the set's oldest
# block to exactly ``max_rrpv``.
_RRIP_SETUP = """\
max_rrpv = params["max_rrpv"]
long_rrpv = max_rrpv - 1
rrpv = [max_rrpv] * total_slots
fill_counts = [[0] * (max_rrpv + 1) for _ in range(4)]
"""

# The first way at ``max_rrpv`` wins: one bounded ``list.index``, which
# finds one on most evictions.  A set with none takes the reference
# engine's aging step, raising every RRPV by ``max_rrpv - oldest``; the
# first way at the old maximum is the first to saturate.
_RRIP_VICTIM = """\
try:
    slot = rrpv.index(max_rrpv, base, end)
except ValueError:
    seg = rrpv[base:end]
    oldest = max(seg)
    slot = base + seg.index(oldest)
    step = max_rrpv - oldest
    rrpv[base:end] = [value + step for value in seg]
"""

_RRIP_INSERT = """\
rrpv[slot] = value
fill_counts[sclass][value] += 1
"""

_LRU_SETUP = "stamps = [0] * total_slots\nclocks = [0] * total_slots"

_LRU_VICTIM = """\
seg = stamps[base:end]
slot = base + seg.index(min(seg))
"""

_LRU_TOUCH = """\
clock = clocks[base] + 1
clocks[base] = clock
stamps[slot] = clock
"""

# BIP's insertion at the LRU position: one below the set's oldest
# stamp, taken over the whole set, the slot's stale stamp included.
_LRU_INSERT = "stamps[slot] = min(stamps[base:base + ways]) - 1"


_BIMODAL_SETUP = """\
bimodal_period = params["bimodal_period"]
fill_tick = 0
"""


def _bimodal(tick: str, rare: str, common: str) -> str:
    """Bimodal insertion: ``rare`` one fill in ``bimodal_period``,
    ``common`` otherwise, counted by the fill counter ``tick``."""
    return (
        f"{tick} += 1\n"
        f"if {tick} >= bimodal_period:\n"
        f"    {tick} = 0\n"
        f"{_indented(rare, 4)}\n"
        "else:\n"
        f"{_indented(common, 4)}\n"
    )


def _duel_fill(
    roles: str, psel: str, tick: str, policy_a: str, rare: str, common: str
) -> str:
    """One set duel's fill (DRRIP, GS-DRRIP, DIP): leader misses move
    PSEL first, then the set's role (or the duel winner, for followers)
    picks ``policy_a`` or the bimodal policy B.  ``roles``, ``psel`` and
    ``tick`` are the expressions naming the duel's state.
    Roles: 1 = policy-A leader, 2 = policy-B leader, 0 = follower."""
    policy_b = textwrap.indent(_bimodal(tick, rare, common), "    ")
    return (
        f"role = {roles}\n"
        "if role == 1:\n"
        f"    if {psel} < psel_max:\n"
        f"        {psel} += 1\n"
        f"{_indented(policy_a, 4)}\n"
        "elif role == 2:\n"
        f"    if {psel} > 0:\n"
        f"        {psel} -= 1\n"
        f"{policy_b}"
        f"elif {psel} > psel_mid:\n"
        f"{policy_b}"
        "else:\n"
        f"{_indented(policy_a, 4)}\n"
    )


# PSEL and bimodal state of one duel; ``roles`` arrive per set and are
# spread to each set's base slot.
_DUEL_SETUP = f"""\
roles = params["roles"]
roles_by_base = [0] * total_slots
for set_i in range(num_sets):
    roles_by_base[set_i * ways] = roles[set_i]
psel = params["psel_midpoint"]
psel_mid = params["psel_midpoint"]
psel_max = params["psel_max"]
{_BIMODAL_SETUP}"""

_BRRIP_FILL = (
    _bimodal("fill_tick", "value = long_rrpv", "value = max_rrpv") + _RRIP_INSERT
)

# DRRIP: SRRIP insertion against BRRIP's.
_DRRIP_FILL = (
    _duel_fill(
        "roles_by_base[base]",
        "psel",
        "fill_tick",
        "value = long_rrpv",
        "value = long_rrpv",
        "value = max_rrpv",
    )
    + _RRIP_INSERT
)

# GS-DRRIP: DRRIP's duel with the roles, PSEL and bimodal tick held per
# stream class.
_GS_DRRIP_SETUP = """\
roles_by_class = []
for roles in params["class_roles"]:
    roles_by_base = [0] * total_slots
    for set_i in range(num_sets):
        roles_by_base[set_i * ways] = roles[set_i]
    roles_by_class.append(roles_by_base)
psels = [params["psel_midpoint"]] * len(roles_by_class)
psel_mid = params["psel_midpoint"]
psel_max = params["psel_max"]
bimodal_period = params["bimodal_period"]
fill_ticks = [0] * len(roles_by_class)
"""

_GS_DRRIP_FILL = (
    _duel_fill(
        "roles_by_class[sclass][base]",
        "psels[sclass]",
        "fill_ticks[sclass]",
        "value = long_rrpv",
        "value = long_rrpv",
        "value = max_rrpv",
    )
    + _RRIP_INSERT
)

# SHiP-mem: one flat signature-history counter table (SHCT) over every
# bank; each slot keeps its fill's table index and whether it was hit
# since.  ``signature`` is the access's pre-decoded table index.
_SHIP_SETUP = """\
signatures = params["signatures"]
shct = [1] * params["shct_entries"]
signature_of = [0] * total_slots
reused = [False] * total_slots
"""

_SHIP_ON_HIT = f"""\
rrpv[slot] = 0
entry = signature_of[slot]
if shct[entry] < {ship.COUNTER_MAX}:
    shct[entry] += 1
reused[slot] = True
"""

_SHIP_ON_EVICT = """\
if not reused[slot]:
    entry = signature_of[slot]
    if shct[entry] > 0:
        shct[entry] -= 1
"""

_SHIP_ON_FILL = f"""\
signature_of[slot] = signature
reused[slot] = False
value = long_rrpv if shct[signature] else max_rrpv
{_RRIP_INSERT}"""

# -- GSPC family -------------------------------------------------------------
#
# The epoch/TSE state machine of the GSPC family (gspztc, gspztc+tse,
# gspc) compiles to the same flat shape as the baselines: one per-line
# ``pstate`` array holding the Figure-10 block state (0 = E0, 1 = E1,
# 2 = E>=2, 3 = RT), the RRPV array of the RRIP substrate, and
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

# The GSPC-family ``on hit`` snippets tick the sample set's ACC first,
# as the reference hooks do for every stream class, then dispatch on
# ``sclass`` once.  The branches are mutually exclusive, so their order
# is free; *within* each class the order matches the reference hooks
# exactly (counter reads before state updates).
_GSPZTC_ON_HIT = f"""\
if sample:
{textwrap.indent(_tick(_GSPZTC_COUNTERS), "    ")}
if sclass == 3:
    rrpv[slot] = 0
elif sclass == 1:
    if sample:
        if pstate[slot] == 3:
{textwrap.indent(_inc("fill_tex"), "            ")}
        else:
{textwrap.indent(_inc("hit_tex"), "            ")}
    if pstate[slot] == 3:
        pstate[slot] = 0
    rrpv[slot] = 0
elif sclass == 2:
    pstate[slot] = 3
    rrpv[slot] = 0
else:
    if sample:
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = 0
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
    value = max_rrpv if fill_tex[bank] > t * hit_tex[bank] else tex_rrpv
elif sclass == 2:
    value = 0
else:
    value = long_rrpv
rrpv[slot] = value
fill_counts[sclass][value] += 1
"""

_TSE_COUNTERS = ("fill_z", "hit_z", "fill_e0", "hit_e0", "fill_e1", "hit_e1")
_GSPC_COUNTERS = _TSE_COUNTERS + ("prod", "cons")


def _tse_on_hit(counters: Tuple[str, ...], rt_consumed: str = "") -> str:
    """Shared GSPZTC+TSE ``on hit``; ``rt_consumed`` is GSPC's extra
    CONS count on an RT -> TEX consumption in a sample set."""
    consumed = (
        textwrap.indent(_inc(rt_consumed), "            ") + "\n"
        if rt_consumed
        else ""
    )
    return f"""\
if sample:
{textwrap.indent(_tick(counters), "    ")}
if sclass == 3:
    rrpv[slot] = 0
elif sclass == 1:
    current = pstate[slot]
    if sample:
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
        rrpv[slot] = 0
    elif current == 3:
        rrpv[slot] = max_rrpv if fill_e0[bank] > t * hit_e0[bank] else 0
        pstate[slot] = 0
    elif current == 0:
        rrpv[slot] = max_rrpv if fill_e1[bank] > t * hit_e1[bank] else 0
        pstate[slot] = 1
    else:
        rrpv[slot] = 0
        pstate[slot] = 2
elif sclass == 2:
    pstate[slot] = 3
    rrpv[slot] = 0
else:
    if sample:
{textwrap.indent(_inc("hit_z"), "        ")}
    rrpv[slot] = 0
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
rrpv[slot] = value
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

# -- per-run parameters -------------------------------------------------------
#
# Each kernel spec lists the parameter groups it reads; each group reads
# its values off the policy instance and the geometry.


def _rrip_params(policy, geometry) -> Dict[str, object]:
    return {"max_rrpv": policy.max_rrpv}


def _bimodal_params(policy, geometry) -> Dict[str, object]:
    return {"bimodal_period": BIMODAL_PERIOD}


def _psel_params(policy) -> Dict[str, object]:
    return {
        "psel_max": (1 << policy.psel_bits) - 1,
        "psel_midpoint": 1 << (policy.psel_bits - 1),
        "bimodal_period": BIMODAL_PERIOD,
    }


def _duel_params(policy, geometry) -> Dict[str, object]:
    roles = leader_roles(geometry.num_sets, target_leaders=policy.target_leaders)
    return {"roles": roles, **_psel_params(policy)}


def _class_duel_params(policy, geometry) -> Dict[str, object]:
    class_roles = [
        leader_roles(
            geometry.num_sets,
            duel_index=sclass,
            num_duels=NUM_STREAM_CLASSES,
            target_leaders=policy.target_leaders,
        )
        for sclass in range(NUM_STREAM_CLASSES)
    ]
    return {"class_roles": class_roles, **_psel_params(policy)}


def _gspc_params(policy, geometry) -> Dict[str, object]:
    return {
        "t": policy.t,
        "counter_max": policy.counter_max,
        "acc_max": policy.acc_max,
        "banks": geometry.banks,
    }


def _tex_rrpv_params(policy, geometry) -> Dict[str, object]:
    return {"tex_rrpv": policy.tex_rrpv}


def _ship_params(policy, geometry) -> Dict[str, object]:
    return {"shct_entries": geometry.banks * ship.TABLE_ENTRIES}


def _future_params(policy, geometry) -> Dict[str, object]:
    return {"never": NEVER}


# ``gspc+bypass``: skip a non-sample, non-write texture fill whose
# sampled epoch-0 reuse fails GSPC's distant-insertion test.  Sample
# sets never bypass, so the counters keep learning; no counter ticks.
_GSPC_BYPASS = """\
if sclass == 1 and not sample and not write and fill_e0[bank] > t * hit_e0[bank]:
    outcomes[index] = 2
    continue
"""

_GSPC_SPEC: Dict[str, object] = {
    "setup": _gspc_setup(_GSPC_COUNTERS),
    "on_hit": _tse_on_hit(_GSPC_COUNTERS, rt_consumed="cons"),
    "select_victim": _RRIP_VICTIM,
    "on_fill": _tse_on_fill(_GSPC_COUNTERS, _GSPC_RT_VALUE, rt_produced="prod"),
    "fill_counts": True,
    "needs_bank": True,
    "params": (_rrip_params, _gspc_params),
}

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
        "setup": _LRU_SETUP,
        "on_hit": _LRU_TOUCH,
        "select_victim": _LRU_VICTIM,
        "on_fill": _LRU_TOUCH,
    },
    "bip": {
        "setup": _LRU_SETUP + "\n" + _BIMODAL_SETUP,
        "on_hit": _LRU_TOUCH,
        "select_victim": _LRU_VICTIM,
        "on_fill": _bimodal("fill_tick", _LRU_TOUCH, _LRU_INSERT),
        "params": (_bimodal_params,),
    },
    "dip": {
        "setup": _LRU_SETUP + "\n" + _DUEL_SETUP,
        "on_hit": _LRU_TOUCH,
        "select_victim": _LRU_VICTIM,
        "on_fill": _duel_fill(
            "roles_by_base[base]",
            "psel",
            "fill_tick",
            _LRU_TOUCH,
            _LRU_TOUCH,
            _LRU_INSERT,
        ),
        "params": (_duel_params,),
    },
    "srrip": {
        "setup": _RRIP_SETUP,
        "on_hit": "rrpv[slot] = 0",
        "select_victim": _RRIP_VICTIM,
        "on_fill": (
            "rrpv[slot] = long_rrpv\n"
            "fill_counts[sclass][long_rrpv] += 1"
        ),
        "fill_counts": True,
        "params": (_rrip_params,),
    },
    "brrip": {
        "setup": _RRIP_SETUP + _BIMODAL_SETUP,
        "on_hit": "rrpv[slot] = 0",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _BRRIP_FILL,
        "fill_counts": True,
        "params": (_rrip_params, _bimodal_params),
    },
    "drrip": {
        "setup": _RRIP_SETUP + _DUEL_SETUP,
        "on_hit": "rrpv[slot] = 0",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _DRRIP_FILL,
        "fill_counts": True,
        "params": (_rrip_params, _duel_params),
    },
    "gs_drrip": {
        "setup": _RRIP_SETUP + _GS_DRRIP_SETUP,
        "on_hit": "rrpv[slot] = 0",
        "select_victim": _RRIP_VICTIM,
        "on_fill": _GS_DRRIP_FILL,
        "fill_counts": True,
        "params": (_rrip_params, _class_duel_params),
    },
    "ship_mem": {
        "setup": _RRIP_SETUP + _SHIP_SETUP,
        "on_hit": _SHIP_ON_HIT,
        "select_victim": _RRIP_VICTIM,
        "on_evict": _SHIP_ON_EVICT,
        "on_fill": _SHIP_ON_FILL,
        "fill_counts": True,
        "needs_signature": True,
        "params": (_rrip_params, _ship_params),
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
        "params": (_future_params,),
    },
    "gspztc": {
        "setup": _gspc_setup(_GSPZTC_COUNTERS) + '\ntex_rrpv = params["tex_rrpv"]',
        "on_hit": _GSPZTC_ON_HIT,
        "select_victim": _RRIP_VICTIM,
        "on_fill": _GSPZTC_ON_FILL,
        "fill_counts": True,
        "needs_bank": True,
        "params": (_rrip_params, _gspc_params, _tex_rrpv_params),
    },
    "gspztc_tse": {
        "setup": _gspc_setup(_TSE_COUNTERS),
        "on_hit": _tse_on_hit(_TSE_COUNTERS),
        "select_victim": _RRIP_VICTIM,
        "on_fill": _tse_on_fill(_TSE_COUNTERS, "value = 0"),
        "fill_counts": True,
        "needs_bank": True,
        "params": (_rrip_params, _gspc_params),
    },
    "gspc": _GSPC_SPEC,
    "gspc_bypass": dict(_GSPC_SPEC, bypass=_GSPC_BYPASS),
}

#: The optional per-access columns of :func:`repro.fastsim.decode.decode_trace`,
#: by the spec flag (and ``decode_trace`` keyword) that requests each.
_COLUMN_FLAGS = ("needs_future", "needs_bank", "needs_signature")

_COMPILED: Dict[str, Callable] = {}


def _spec(kind: str) -> Dict[str, object]:
    if kind not in _SPECS:
        known = ", ".join(sorted(_SPECS))
        raise SimulationError(f"no fast kernel {kind!r}; known kernels: {known}")
    return _SPECS[kind]


def _hook(snippet: object, depth: int) -> str:
    """An optional hook's lines, or no text at all when it is empty."""
    return _indented(str(snippet), depth) + "\n" if snippet else ""


def kernel_source(kind: str) -> str:
    """The generated source of one kernel (also kept on the function)."""
    spec = _spec(kind)
    loop_vars = "block, base, sclass, write"
    loop_srcs = "blocks, bases, sclasses, writes"
    if spec.get("needs_future"):
        loop_vars += ", next_use"
        loop_srcs += ", next_uses"
    if spec.get("needs_bank"):
        loop_vars += ", bank, sample"
        loop_srcs += ", banks, samples"
    if spec.get("needs_signature"):
        loop_vars += ", signature"
        loop_srcs += ", signatures"
    return _TEMPLATE.substitute(
        setup=_indented(str(spec["setup"]), 4),
        on_hit=_indented(str(spec["on_hit"]), 12),
        bypass=_hook(spec.get("bypass"), 8),
        select_victim=_indented(str(spec["select_victim"]), 12),
        on_evict=_hook(spec.get("on_evict"), 12),
        on_fill=_indented(str(spec["on_fill"]), 8),
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


def kernel_columns(kind: str) -> Dict[str, bool]:
    """Which optional per-access columns the kernel reads, as
    :func:`~repro.fastsim.decode.decode_trace` keyword flags."""
    spec = _spec(kind)
    return {flag: bool(spec.get(flag)) for flag in _COLUMN_FLAGS}


def kernel_params(kind: str, instance, geometry) -> Dict[str, object]:
    """Per-run parameters the kernel ``kind`` reads from its policy instance."""
    params: Dict[str, object] = {}
    for group in _spec(kind).get("params", ()):
        params.update(group(instance, geometry))
    return params
