"""Section-2-style characterization of one rendered frame.

Prints the stream access mix, per-stream hit rates under OPT/DRRIP/NRU,
the inter- vs intra-stream texture reuse split, and the texture and Z
epoch death ratios — the measurements that motivated GSPC's design.

Run:  python examples/characterize_frame.py [app] [frame]
"""

import sys

from repro import app_by_name, generate_frame_trace
from repro.analysis.characterize import characterize_frame
from repro.config import paper_baseline
from repro.sim.offline import replay
from repro.streams import ALL_STREAMS, StreamClass
from repro.trace.stats import compute_trace_stats

SCALE = 0.125


def main() -> None:
    app_name = sys.argv[1] if len(sys.argv) > 1 else "BioShock"
    frame_index = int(sys.argv[2]) if len(sys.argv) > 2 else 0
    system = paper_baseline(llc_mb=8, scale=SCALE)
    app = app_by_name(app_name)
    trace = generate_frame_trace(app, frame_index, scale=SCALE)

    print(f"Frame {trace.meta['name']}: {len(trace):,} LLC accesses\n")

    records = {
        policy: replay(trace, policy, system.llc)
        for policy in ("belady", "drrip", "nru")
    }
    llc_stats = {policy: record.result.stats for policy, record in records.items()}

    print("Stream access mix (cf. Figure 4):")
    mix = compute_trace_stats(trace).mix()
    for stream in ALL_STREAMS:
        fraction = mix[stream]
        bar = "#" * int(50 * fraction)
        print(f"  {stream.short_name:5s} {100 * fraction:5.1f}%  {bar}")

    print("\nPer-stream hit rates (cf. Figure 5):")
    print(f"  {'policy':8s} {'TEX':>7s} {'RT':>7s} {'Z':>7s}")
    for policy, stats in llc_stats.items():
        print(
            f"  {policy:8s} {stats.tex_hit_rate:7.3f} "
            f"{stats.rt_hit_rate:7.3f} {stats.z_hit_rate:7.3f}"
        )

    print("\nTexture reuse (cf. Figure 6):")
    for policy, stats in llc_stats.items():
        print(
            f"  {policy:8s} inter-stream hits {stats.tex_inter_hits:7,d}  "
            f"intra {stats.tex_intra_hits:7,d}  "
            f"RT->TEX consumption {stats.rt_consumption_rate:.1%}"
        )

    print("\nEpoch death ratios under OPT (cf. Figures 7 and 9):")
    epochs = characterize_frame(trace, records["belady"], system.llc)
    tex, z = epochs[StreamClass.TEX], epochs[StreamClass.Z]
    for label, epochs in (("texture", tex), ("Z", z)):
        ratios = "  ".join(
            f"E{e}={epochs.death_ratio(e):.2f}" for e in range(3)
        )
        print(f"  {label:8s} {ratios}")
    distribution = tex.hit_distribution()
    print(
        "  texture hits by epoch: "
        + "  ".join(
            f"{label}={100 * value:.0f}%"
            for label, value in zip(("E0", "E1", "E2", "E3+"), distribution)
        )
    )


if __name__ == "__main__":
    main()
