"""ENGINE-POOL — amortised vs cold QHD engine setup across batch sizes.

Not a paper artefact: this bench guards the engine/workspace pool
(:class:`repro.qhd.pool.EnginePool`) that PR 5 put under the
``repro.api.Session`` runtime.  Every QHD run needs an
:class:`~repro.qhd.engine.EvolutionEngine` — schedule coefficient
tables, the ``(n_steps, grid)`` kinetic phase table, the propagator
eigensystem and a full set of ``(samples, n, grid)`` workspace buffers.
Before the pool, ``detect_batch`` rebuilt all of that per graph even
when every run in the batch shared the same shape.

Two measurements over identical seeded runs:

* **acquisition** — per-engine acquisition cost, cold (fresh
  construction per run) vs leased (one construction, then
  rebind-and-reuse from the pool), and the resulting amortised-setup
  speedup at each batch size (only the first lease of a shape pays the
  construction);
* **end-to-end** — ``Session.detect_batch`` over B same-shape graphs
  with the QHD solver, pooled vs ``pooling=False``, asserting both
  produce identical seeded partitions (the pool is a pure throughput
  knob) and reporting total wall time.

Besides the usual text report it writes
``benchmarks/results/engine_pool.json`` and appends the headline point
to the root-level ``BENCH_engine_pool.json`` perf trajectory (one entry
per PR touching the pool/session path).

Run standalone with ``python benchmarks/bench_engine_pool.py [--quick]
[--no-trajectory]`` or through pytest like the other ``bench_*``
modules.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"
ROOT_TRAJECTORY = Path(__file__).parent.parent / "BENCH_engine_pool.json"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402
from _trajectory import append_point  # noqa: E402


def _measure_acquisition(
    n_variables: int,
    grid_points: int,
    n_steps: int,
    n_samples: int,
    batch_sizes: list[int],
    repeats: int,
) -> dict:
    """Cold vs leased engine acquisition for one run shape."""
    from repro.hamiltonian.schedules import get_schedule
    from repro.qhd.engine import EvolutionEngine
    from repro.qhd.pool import EnginePool
    from repro.qubo.random_instances import random_qubo

    model = random_qubo(n_variables, 0.2, seed=1)
    schedule = get_schedule("qhd-default", 1.0)
    knobs = dict(
        n_samples=n_samples,
        grid_points=grid_points,
        n_steps=n_steps,
        t_final=1.0,
    )

    probes = max(8, repeats)
    cold = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(probes):
            EvolutionEngine(model, schedule, **knobs)
        cold = min(cold, (time.perf_counter() - start) / probes)

    pool = EnginePool()
    with pool.lease(model, schedule, **knobs):
        pass  # warm the pool: one engine per key
    leased = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(probes):
            with pool.lease(model, schedule, **knobs):
                pass
        leased = min(leased, (time.perf_counter() - start) / probes)

    rows = []
    for batch in batch_sizes:
        # A batch of B same-shape runs pays B cold constructions
        # without the pool; with it, one construction plus B-1 leases.
        cold_total = batch * cold
        pooled_total = cold + (batch - 1) * leased
        rows.append(
            {
                "batch": batch,
                "cold_setup_ms": cold_total * 1e3,
                "pooled_setup_ms": pooled_total * 1e3,
                "amortized_speedup": cold_total / max(1e-12, pooled_total),
            }
        )
    return {
        "n_variables": n_variables,
        "grid_points": grid_points,
        "n_steps": n_steps,
        "n_samples": n_samples,
        "cold_ms_per_engine": cold * 1e3,
        "leased_ms_per_engine": leased * 1e3,
        "acquisition_speedup": cold / max(1e-12, leased),
        "batches": rows,
    }


def _measure_end_to_end(scale: float, batch: int) -> dict:
    """Pooled vs unpooled Session.detect_batch on same-shape graphs."""
    import repro.api as api
    from repro.graphs.generators import ring_of_cliques

    clique_size = max(4, int(round(6 * min(scale, 1.0))))
    graphs = [ring_of_cliques(3, clique_size)[0] for _ in range(batch)]
    spec = {
        "detector": "qhd",
        "solver": "qhd",
        "solver_config": {
            "n_samples": 8,
            "grid_points": 32,
            "n_steps": max(20, int(round(60 * min(scale, 1.0)))),
        },
        "n_communities": 3,
        "seed": 7,
    }

    timings = {}
    labels = {}
    pool_stats = None
    for pooled in (False, True):
        with api.Session(pooling=pooled) as session:
            start = time.perf_counter()
            artifacts = session.detect_batch(graphs, spec, max_workers=1)
            timings[pooled] = time.perf_counter() - start
            if pooled:
                pool_stats = session.stats()["engine_pool"]
        labels[pooled] = [a.result.labels for a in artifacts]

    # The pool must not change seeded results — it is pure throughput.
    assert all(
        (a == b).all() for a, b in zip(labels[False], labels[True])
    ), "pooled batch diverged from the unpooled run"

    return {
        "batch": batch,
        "n_nodes": 3 * clique_size,
        "spec": spec,
        "unpooled_seconds": timings[False],
        "pooled_seconds": timings[True],
        "speedup": timings[False] / max(1e-9, timings[True]),
        "pool_stats": pool_stats,
    }


def run_engine_pool(scale: float) -> dict:
    """Full engine-pool report: acquisition shapes + end-to-end batch."""
    repeats = 3 if scale >= 0.5 else 2
    batch_sizes = [1, 4, 16] if scale < 1.0 else [1, 4, 16, 64]
    shapes = [
        # (n_variables, grid_points, n_steps, n_samples): the small-
        # graph batch shape the pool targets, plus a heavier one.
        (60, 32, max(20, int(round(100 * min(scale, 1.0)))), 16),
        (90, 64, max(40, int(round(200 * min(scale, 1.0)))), 32),
    ]
    acquisition = [
        _measure_acquisition(n, grid, steps, samples, batch_sizes, repeats)
        for n, grid, steps, samples in shapes
    ]
    end_to_end = _measure_end_to_end(
        scale, batch=8 if scale >= 0.5 else 4
    )
    return {
        "benchmark": "engine_pool",
        "scale": scale,
        "acquisition": acquisition,
        "end_to_end": end_to_end,
        "min_acquisition_speedup": min(
            row["acquisition_speedup"] for row in acquisition
        ),
    }


def report_text(report: dict) -> str:
    """Human-readable table of one engine-pool run."""
    lines = [
        "ENGINE-POOL — amortised vs cold QHD engine setup",
        "(per-engine acquisition: construction vs pool lease+rebind)",
        "-" * 68,
    ]
    for shape in report["acquisition"]:
        lines.append(
            f"n={shape['n_variables']} grid={shape['grid_points']} "
            f"steps={shape['n_steps']} samples={shape['n_samples']}: "
            f"cold {shape['cold_ms_per_engine']:.3f} ms, leased "
            f"{shape['leased_ms_per_engine']:.3f} ms "
            f"({shape['acquisition_speedup']:.0f}x)"
        )
        for row in shape["batches"]:
            lines.append(
                f"  batch {row['batch']:>3}: setup "
                f"{row['cold_setup_ms']:>8.2f} ms cold vs "
                f"{row['pooled_setup_ms']:>8.2f} ms pooled "
                f"({row['amortized_speedup']:.1f}x amortised)"
            )
    e2e = report["end_to_end"]
    lines.append(
        f"end-to-end detect_batch ({e2e['batch']} x {e2e['n_nodes']}-node "
        f"graphs, qhd solver): {e2e['unpooled_seconds'] * 1e3:.0f} ms "
        f"unpooled vs {e2e['pooled_seconds'] * 1e3:.0f} ms pooled "
        f"({e2e['speedup']:.2f}x), identical seeded partitions"
    )
    if e2e["pool_stats"]:
        stats = e2e["pool_stats"]
        lines.append(
            f"pool: {stats['hits']} hits / {stats['misses']} misses, "
            f"{stats['setup_seconds'] * 1e3:.2f} ms total engine setup"
        )
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "engine_pool.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def append_trajectory_point(report: dict, quick: bool) -> Path:
    """Append the headline point to the root BENCH_engine_pool.json.

    One entry per PR touching the pool/session path: the heavier
    acquisition shape's cold/leased cost, the batch-16 amortised-setup
    speedup, and the end-to-end pooled-batch speedup.
    """
    shape = report["acquisition"][-1]
    batch16 = next(
        (row for row in shape["batches"] if row["batch"] == 16),
        shape["batches"][-1],
    )
    e2e = report["end_to_end"]
    point = {
        "n_variables": shape["n_variables"],
        "grid_points": shape["grid_points"],
        "n_steps": shape["n_steps"],
        "n_samples": shape["n_samples"],
        "cold_ms_per_engine": shape["cold_ms_per_engine"],
        "leased_ms_per_engine": shape["leased_ms_per_engine"],
        "acquisition_speedup": shape["acquisition_speedup"],
        "amortized_setup_speedup_batch16": batch16["amortized_speedup"],
        "end_to_end_batch_speedup": e2e["speedup"],
    }
    return append_point(ROOT_TRAJECTORY, "engine_pool", point, quick=quick)


def test_engine_pool(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.4)
    report = benchmark.pedantic(
        run_engine_pool, args=(scale,), rounds=1, iterations=1
    )
    save_report("engine_pool", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    # Leasing must be much cheaper than reconstruction everywhere.
    assert report["min_acquisition_speedup"] > 2.0
    # And amortisation must grow with the batch size.
    for shape in report["acquisition"]:
        speedups = [row["amortized_speedup"] for row in shape["batches"]]
        assert speedups == sorted(speedups)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force small shapes regardless of REPRO_BENCH_SCALE — "
        "used by CI",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to the root BENCH_engine_pool.json "
        "(CI uses this; trajectory points are committed from full runs)",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.quick else bench_scale()
    report = run_engine_pool(scale)
    save_report("engine_pool", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    if not args.no_trajectory:
        traj = append_trajectory_point(report, args.quick)
        print(f"[trajectory point appended to {traj}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
