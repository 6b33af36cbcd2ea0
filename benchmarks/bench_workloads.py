"""Workload-family characterization benchmark.

Characterizes every preset of the extended workload families
(``repro.workloads.families``: coherent / graph / compute) and writes
``BENCH_workloads.json``::

    PYTHONPATH=src python benchmarks/bench_workloads.py --out BENCH_workloads.json

Per preset: the stream-class mix, Table 1 envelope verdict, an LRU
stack-distance (reuse-distance) summary, and the miss rate of each of
the 8 golden policies at the golden sweep geometry (``--llc-mb 1``,
the capacity that differentiates policies at reduced scale).  Per
family: mean miss rate per policy across the family's presets and the
number of *distinct* policy miss rates.  The CI characterization job
gates on:

* ``coherent`` presets conform to the Table 1 envelope; ``graph`` and
  ``compute`` presets violate it (they exist to probe outside it);
* every family differentiates at least ``--min-distinct`` (default 4)
  of the 8 policies;
* the coherent family's inter-frame block overlap is ordered by its
  similarity knob (coh-hi > coh-lo).

Exit 0 when every gate holds, 1 otherwise.
"""

import numpy as np

#: The golden policy set (same as the ingest golden CSV): every name is
#: fast-engine covered, so the characterization run stays quick.
POLICIES = [
    "nru", "lru", "srrip", "drrip",
    "gspztc", "gspztc+tse", "gspc", "gspc+ucd",
]

#: Stack-distance computation is O(n log n) with a Python-level loop;
#: cap the profiled prefix so graph-pr (~400k accesses) stays cheap.
REUSE_DISTANCE_CAP = 120_000


def characterize_preset(workload, scale: float, llc_mb: int) -> dict:
    from repro.analysis.reuse import reuse_distance_summary
    from repro.config import paper_baseline
    from repro.sim.offline import simulate_trace
    from repro.trace.sources.envelope import (
        characterize_capture,
        check_envelope,
    )

    trace = workload.generate(0, scale)
    characterization = characterize_capture(trace)
    violations = check_envelope(characterization)
    profiled = (
        trace if len(trace) <= REUSE_DISTANCE_CAP
        else trace.slice(0, REUSE_DISTANCE_CAP)
    )
    llc = paper_baseline(llc_mb=llc_mb, scale=scale).llc
    miss_rates = {}
    for policy in POLICIES:
        result = simulate_trace(trace, policy, llc, engine="fast")
        total = result.hits + result.misses
        miss_rates[policy] = result.misses / total if total else 0.0
    return {
        "name": workload.name,
        "abbrev": workload.abbrev,
        "family": workload.family,
        "accesses": characterization["accesses"],
        "write_fraction": characterization["write_fraction"],
        "footprint_bytes": characterization["footprint_bytes"],
        "classes": characterization["classes"],
        "envelope_violations": violations,
        "conformant": not violations,
        "reuse_distance": reuse_distance_summary(profiled),
        "reuse_distance_accesses": len(profiled),
        "miss_rates": miss_rates,
    }


def run_bench(scale: float, llc_mb: int, min_distinct: int) -> dict:
    from repro.workloads.families import (
        FAMILY_ENVELOPE_CONFORMANT,
        all_families,
        family_by_name,
        family_workloads,
    )
    from repro.workloads.families.coherent import inter_frame_overlap

    families = {}
    failures = []
    for family in all_families():
        presets = [
            characterize_preset(workload, scale, llc_mb)
            for workload in family_workloads(family)
        ]
        means = {
            policy: float(
                np.mean([p["miss_rates"][policy] for p in presets])
            )
            for policy in POLICIES
        }
        distinct = len({round(rate, 9) for rate in means.values()})
        expected = FAMILY_ENVELOPE_CONFORMANT[family]
        for preset in presets:
            if preset["conformant"] != expected:
                verdict = "conform" if expected else "violate"
                failures.append(
                    f"{preset['name']}: expected to {verdict} the Table 1 "
                    f"envelope, got violations={preset['envelope_violations']}"
                )
        if distinct < min_distinct:
            failures.append(
                f"family {family}: only {distinct} distinct policy miss "
                f"rates (need >= {min_distinct}); means={means}"
            )
        families[family] = {
            "presets": presets,
            "mean_miss_rates": means,
            "distinct_policies": distinct,
            "envelope_conformant_expected": expected,
        }

    # Knob validation: more similarity must mean more inter-frame reuse.
    overlaps = {
        name: inter_frame_overlap(family_by_name(name), scale)
        for name in ("coh-hi", "coh-med", "coh-lo")
    }
    families["coherent"]["inter_frame_overlap"] = overlaps
    if not overlaps["coh-hi"] > overlaps["coh-lo"]:
        failures.append(
            f"similarity knob inert: overlap(coh-hi)={overlaps['coh-hi']:.4f}"
            f" <= overlap(coh-lo)={overlaps['coh-lo']:.4f}"
        )

    return {
        "scale": scale,
        "llc_mb": llc_mb,
        "policies": POLICIES,
        "min_distinct": min_distinct,
        "families": families,
        "failures": failures,
        "ok": not failures,
    }


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(
        description="Characterize the extended workload families."
    )
    parser.add_argument(
        "--out", default="BENCH_workloads.json", help="report path"
    )
    parser.add_argument(
        "--scale", type=float, default=0.0625, help="linear frame scale"
    )
    parser.add_argument(
        "--llc-mb", type=int, default=1,
        help="LLC capacity for the miss-rate spread (paper-scale MB)",
    )
    parser.add_argument(
        "--min-distinct", type=int, default=4,
        help="minimum distinct per-family policy miss rates",
    )
    args = parser.parse_args(argv)
    report = run_bench(args.scale, args.llc_mb, args.min_distinct)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    for family, data in report["families"].items():
        presets = data["presets"]
        verdict = "conformant" if data["envelope_conformant_expected"] else "violating"
        print(
            f"{family}: {len(presets)} presets, "
            f"{data['distinct_policies']}/8 policies distinct, "
            f"envelope {verdict}"
        )
    for failure in report["failures"]:
        print(f"FAIL: {failure}")
    print(f"wrote {args.out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
