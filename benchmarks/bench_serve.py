"""SERVE — service-tier throughput and latency under fixed concurrency.

Not a paper artefact: this bench guards the PR 10 service tier
(``repro serve`` / :class:`repro.server.ReproServer`).  It starts one
in-process server on an ephemeral port and drives seeded
``POST /detect`` requests from a fixed pool of client threads — the
workload a long-lived deployment actually sees — for two spec weights
(the light greedy baseline and the paper's QHD pipeline), reporting
requests/sec and p50/p95 end-to-end latency per weight.

The concurrency stays within the server's queue bound on purpose: the
number under test is sustained throughput, not shed rate (the 429 path
has its own tier-1 tests), so a healthy run serves every request.

Besides the usual text report it writes
``benchmarks/results/serve.json`` with the shape::

    {"benchmark": "serve", "instances": [
        {"label": ..., "n_requests": ..., "concurrency": ...,
         "rps": ..., "p50_ms": ..., "p95_ms": ...,
         "served": ..., "shed": ...}, ...]}

and (full runs only) appends the headline point to the root-level
``BENCH_serve.json`` perf trajectory.

Run standalone with ``python benchmarks/bench_serve.py [--quick]
[--no-trajectory]`` or through pytest like the other ``bench_*``
modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
ROOT_TRAJECTORY = Path(__file__).parent.parent / "BENCH_serve.json"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402
from _trajectory import append_point  # noqa: E402

CONCURRENCY = 4

GREEDY_SPEC = {"solver": "greedy", "n_communities": 3, "seed": 0}

QHD_SPEC = {
    "detector": "qhd",
    "solver": "qhd",
    "solver_config": {"n_samples": 4, "grid_points": 8, "n_steps": 15},
    "n_communities": 3,
    "seed": 7,
}


def _detect_body(spec: dict) -> bytes:
    from repro.graphs.generators import ring_of_cliques

    graph, _ = ring_of_cliques(3, 6)
    payload = {
        "graph": {
            "n_nodes": graph.n_nodes,
            "edges": [
                [int(u), int(v), float(w)] for u, v, w in graph.edges()
            ],
        },
        "spec": spec,
    }
    return json.dumps(payload).encode("utf-8")


def _drive(url: str, body: bytes, n_requests: int) -> list[float]:
    """Fire ``n_requests`` from ``CONCURRENCY`` threads; per-request s."""
    latencies: list[float] = []
    lock = threading.Lock()
    remaining = [n_requests]

    def client() -> None:
        while True:
            with lock:
                if remaining[0] == 0:
                    return
                remaining[0] -= 1
            start = time.perf_counter()
            request = urllib.request.Request(url, data=body)
            with urllib.request.urlopen(request, timeout=120) as response:
                response.read()
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)

    threads = [
        threading.Thread(target=client) for _ in range(CONCURRENCY)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return latencies


def run_serve(scale: float) -> dict:
    """Throughput/latency of one warm server for two spec weights."""
    from repro.server import ReproServer

    n_requests = max(16, int(round(48 * scale)))
    weights = [("greedy", GREEDY_SPEC), ("qhd", QHD_SPEC)]

    instances = []
    server = ReproServer(
        port=0,
        max_queue=2 * CONCURRENCY,
        executor="thread",
        max_workers=CONCURRENCY,
    )
    serve_thread = threading.Thread(
        target=server.serve_forever, name="bench-serve"
    )
    serve_thread.start()
    try:
        for label, spec in weights:
            body = _detect_body(spec)
            url = server.url + "/detect"
            _drive(url, body, max(4, CONCURRENCY))  # warm engines
            before = server.stats()["server"]
            start = time.perf_counter()
            latencies = _drive(url, body, n_requests)
            wall = time.perf_counter() - start
            after = server.stats()["server"]
            assert len(latencies) == n_requests
            samples = np.asarray(latencies)
            instances.append(
                {
                    "label": label,
                    "n_requests": n_requests,
                    "concurrency": CONCURRENCY,
                    "rps": n_requests / wall,
                    "p50_ms": float(np.percentile(samples, 50) * 1e3),
                    "p95_ms": float(np.percentile(samples, 95) * 1e3),
                    "served": after["served"] - before["served"],
                    "shed": after["shed"] - before["shed"],
                }
            )
    finally:
        server.request_shutdown()
        serve_thread.join(timeout=120)
    return {
        "benchmark": "serve",
        "scale": scale,
        "instances": instances,
    }


def report_text(report: dict) -> str:
    """Human-readable table of one service-tier run."""
    lines = [
        "SERVE — HTTP service tier, seeded POST /detect",
        f"{CONCURRENCY} client threads against one warm session",
        "-" * 64,
        f"{'spec':>8} {'requests':>9} {'rps':>8} "
        f"{'p50':>9} {'p95':>9} {'shed':>5}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['label']:>8} {row['n_requests']:>9} "
            f"{row['rps']:>8.1f} {row['p50_ms']:>7.2f}ms "
            f"{row['p95_ms']:>7.2f}ms {row['shed']:>5}"
        )
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "serve.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def append_trajectory_point(report: dict, quick: bool) -> Path:
    """Append the headline point to the root BENCH_serve.json.

    One entry per PR touching the service tier: the heavier (QHD)
    weight's throughput and tail latency.
    """
    row = report["instances"][-1]
    point = {
        "label": row["label"],
        "n_requests": row["n_requests"],
        "concurrency": row["concurrency"],
        "rps": row["rps"],
        "p50_ms": row["p50_ms"],
        "p95_ms": row["p95_ms"],
    }
    return append_point(ROOT_TRAJECTORY, "serve", point, quick=quick)


def test_serve(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.5)
    report = benchmark.pedantic(
        run_serve, args=(scale,), rounds=1, iterations=1
    )
    save_report("serve", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    assert len(report["instances"]) == 2
    for row in report["instances"]:
        # A bounded healthy run serves everything and sheds nothing.
        assert row["served"] == row["n_requests"]
        assert row["shed"] == 0
        assert row["rps"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force small request counts regardless of "
        "REPRO_BENCH_SCALE — used by CI",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to the root BENCH_serve.json "
        "(CI uses this; trajectory points are committed from full runs)",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.quick else bench_scale()
    report = run_serve(scale)
    save_report("serve", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    if not args.no_trajectory:
        traj = append_trajectory_point(report, args.quick)
        print(f"[trajectory point appended to {traj}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
