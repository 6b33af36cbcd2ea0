"""Policy shootout: misses and frame rate for every evaluated policy.

Reproduces the flavour of the paper's Figures 12 and 15 on a handful of
applications, printing both normalized miss counts and the modeled
frames-per-second speedups.

Run:  python examples/policy_shootout.py [--apps N] [--scale S]
"""

import argparse

from repro import generate_frame_trace, simulate_frame_timing, simulate_trace
from repro.config import paper_baseline
from repro.analysis.tables import Table
from repro.workloads.apps import ALL_APPS

MISS_POLICIES = (
    "nru", "ship-mem", "gs-drrip", "gspztc", "gspztc+tse", "gspc+ucd",
)
PERF_POLICIES = ("nru+ucd", "gs-drrip+ucd", "gspc+ucd")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--apps", type=int, default=4,
                        help="number of applications (default 4)")
    parser.add_argument("--scale", type=float, default=0.125)
    args = parser.parse_args()

    system = paper_baseline(llc_mb=8, scale=args.scale)

    misses = Table(
        "LLC misses normalized to DRRIP (cf. Figure 12)",
        ["Application"] + [p.upper() for p in MISS_POLICIES],
    )
    perf = Table(
        "Speedup over DRRIP+UCD (cf. Figure 15)",
        ["Application"] + [p.upper() for p in PERF_POLICIES] + ["FPS"],
    )

    for app in ALL_APPS[: args.apps]:
        trace = generate_frame_trace(app, 0, scale=args.scale)
        baseline = simulate_trace(trace, "drrip", system.llc)
        misses.add_row(
            app.abbrev,
            *[
                simulate_trace(trace, p, system.llc).misses_normalized_to(
                    baseline
                )
                for p in MISS_POLICIES
            ],
        )
        timing_base = simulate_frame_timing(trace, "drrip+ucd", system)
        timings = [simulate_frame_timing(trace, p, system) for p in PERF_POLICIES]
        perf.add_row(
            app.abbrev,
            *[t.speedup_over(timing_base) for t in timings],
            timings[-1].fps_full_scale,
        )

    print(misses.render())
    print()
    print(perf.render())


if __name__ == "__main__":
    main()
