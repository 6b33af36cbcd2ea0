"""GSPC with dead-texture bypass (an extension beyond the paper).

The paper inserts probably-dead texture blocks at the distant RRPV; the
logical next step (its Section 1.1 cites bypass algorithms [4, 11]) is
to not install them at all.  ``GSPCBypassPolicy`` bypasses a texture
fill whenever the sampled epoch-0 reuse probability is below the same
``1/(t+1)`` threshold that would have produced a distant insertion —
sample sets still cache everything, so the probabilities keep being
learned and the policy can exit bypass mode when textures become hot.

The LLC stays non-inclusive, so bypassing is architecturally legal: the
requesting render cache receives the data either way.
"""

from __future__ import annotations

from repro.core.base import AccessContext
from repro.core.gspc import GSPCPolicy
from repro.streams import StreamClass

_TEX = int(StreamClass.TEX)


class GSPCBypassPolicy(GSPCPolicy):
    name = "gspc+bypass"

    def should_bypass(self, ctx: AccessContext) -> bool:
        # Never bypass in the sample sets: they must keep learning the
        # true reuse probabilities under SRRIP.
        if ctx.is_sample or ctx.sclass != _TEX or ctx.is_write:
            return False
        return self._low_reuse("fill_e0", "hit_e0", ctx.bank)
