"""gspc-serve load benchmark.

Starts a real ``gspc-serve`` process on an ephemeral port, warms its
content-addressed store with one tiny sweep, then hammers the HTTP API
from ``--clients`` concurrent clients for ``--rounds`` timed rounds.
Every request in the load phase is a store-backed operation (cache-hit
submit, status, result, stats), so the report measures the service
stack — HTTP framing, event-loop dispatch, store reads — not
simulation time::

    PYTHONPATH=src python benchmarks/bench_serve.py --out BENCH_serve.json

Throughput is the best round (requests/sec); latency percentiles are
the best round's, so both reflect machinery cost rather than scheduler
noise — the same best-of-rounds convention as ``bench_sweep.py``.  The
report's ``metrics`` map holds throughput and p99 latency; CI writes
``BENCH_serve_ci.json`` and gates it against the committed
``BENCH_serve.json`` with ``check_regression.py`` (25% degradation
rule).  p50 latency is reported outside the map: median latency on a
shared runner is too noisy to block on.
"""

import time

#: The warm-up spec: one policy, one frame, tiny scale — just enough to
#: put one real result in the store for the load phase to hit.
WARM_SPEC = {
    "name": "bench-serve",
    "policies": ["drrip"],
    "apps": ["DMC"],
    "scale": 0.0625,
    "llc_mb": [8],
}


def percentile(sorted_seconds, fraction: float) -> float:
    """Nearest-rank percentile of an ascending latency list."""
    if not sorted_seconds:
        return 0.0
    index = min(len(sorted_seconds) - 1, int(fraction * len(sorted_seconds)))
    return sorted_seconds[index]


def run_bench(
    clients: int = 4,
    requests_per_client: int = 50,
    rounds: int = 3,
    base_dir: str = ".",
) -> dict:
    import os
    import signal
    import subprocess
    import sys
    import threading

    from repro.serve.client import ServeClient, read_port_file

    store_dir = os.path.join(base_dir, "store")
    port_file = os.path.join(base_dir, "serve.port")
    # Server stderr goes to serve.log so CI can upload it on failure.
    log_handle = open(os.path.join(base_dir, "serve.log"), "wb")
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--store", store_dir,
            "--port", "0",
            "--port-file", port_file,
            "--cache-dir", os.path.join(base_dir, "cache"),
        ],
        stdout=subprocess.DEVNULL,
        stderr=log_handle,
    )
    try:
        deadline = time.time() + 30
        while not os.path.exists(port_file):
            if time.time() > deadline:
                raise RuntimeError("gspc-serve never wrote its port file")
            time.sleep(0.05)
        address = read_port_file(port_file)
        control = ServeClient(address)
        control.wait_until_up()

        started = time.perf_counter()
        key = control.submit(WARM_SPEC)["key"]
        control.wait(key, timeout=300)
        cold_compute_seconds = time.perf_counter() - started

        def client_body(latencies: list) -> None:
            client = ServeClient(address)
            # One submit (cache hit), then a status/result/stats rotation
            # — the mix a dashboard polling finished work generates.
            ops = [
                lambda: client.submit(WARM_SPEC),
                lambda: client.status(key),
                lambda: client.result(key),
                lambda: client.stats(),
            ]
            for i in range(requests_per_client):
                op = ops[i % len(ops)]
                op_started = time.perf_counter()
                op()
                latencies.append(time.perf_counter() - op_started)

        round_stats = []
        for _ in range(rounds):
            per_client = [[] for _ in range(clients)]
            threads = [
                threading.Thread(target=client_body, args=(per_client[i],))
                for i in range(clients)
            ]
            round_started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - round_started
            latencies = sorted(
                latency for chunk in per_client for latency in chunk
            )
            round_stats.append(
                {
                    "requests": len(latencies),
                    "seconds": wall,
                    "throughput_rps": len(latencies) / wall,
                    "p50_seconds": percentile(latencies, 0.50),
                    "p99_seconds": percentile(latencies, 0.99),
                }
            )
        best = max(round_stats, key=lambda row: row["throughput_rps"])
        control.shutdown()
        server.wait(timeout=30)
    finally:
        if server.poll() is None:
            server.send_signal(signal.SIGKILL)
            server.wait()
        log_handle.close()
    return {
        "clients": clients,
        "requests_per_client": requests_per_client,
        "rounds": rounds,
        "requests_total": sum(row["requests"] for row in round_stats),
        "cold_compute_seconds": cold_compute_seconds,
        "round_stats": round_stats,
        # The best round, so noise can only help.
        "p50_seconds": best["p50_seconds"],
        "metrics": {
            "throughput_rps": {
                "value": best["throughput_rps"],
                "unit": "req/s",
                "better": "higher",
            },
            "p99_seconds": {
                "value": best["p99_seconds"],
                "unit": "s",
                "better": "lower",
            },
        },
    }


def main(argv=None) -> int:
    import argparse
    import json
    import tempfile

    parser = argparse.ArgumentParser(
        description="Load-test gspc-serve and report latency/throughput."
    )
    parser.add_argument("--out", default="BENCH_serve.json", help="report path")
    parser.add_argument(
        "--clients", type=int, default=4, help="concurrent clients"
    )
    parser.add_argument(
        "--requests", type=int, default=50, help="requests per client per round"
    )
    parser.add_argument(
        "--rounds", type=int, default=3, help="timed rounds (best is reported)"
    )
    parser.add_argument(
        "--dir", default=None,
        help="working directory to keep (serve.log, store, WAL) for "
        "post-mortems; default is an ephemeral tempdir",
    )
    args = parser.parse_args(argv)
    if args.dir:
        import os

        os.makedirs(args.dir, exist_ok=True)
        report = run_bench(
            clients=args.clients,
            requests_per_client=args.requests,
            rounds=args.rounds,
            base_dir=args.dir,
        )
    else:
        with tempfile.TemporaryDirectory(prefix="bench-serve-") as base_dir:
            report = run_bench(
                clients=args.clients,
                requests_per_client=args.requests,
                rounds=args.rounds,
                base_dir=base_dir,
            )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    metrics = report["metrics"]
    print(
        f"wrote {args.out}: {metrics['throughput_rps']['value']:,.0f} req/s "
        f"over {args.clients} client(s), "
        f"p50 {report['p50_seconds'] * 1e3:.2f}ms, "
        f"p99 {metrics['p99_seconds']['value'] * 1e3:.2f}ms "
        f"(cold compute {report['cold_compute_seconds']:.2f}s)"
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
