"""STREAM — incremental vs recompute per-event-batch QUBO maintenance.

Not a paper artefact: this bench guards the streaming pipeline PR 8 put
under ``repro.api.detect_stream``.  On an evolving LFR community graph
it times the two ways of keeping a solver-ready QUBO current across a
stream of edge-event batches (insert / delete / reweight):

* ``recompute`` — what a non-incremental consumer pays per batch: a
  fresh ``Graph`` from the maintained edge list, a from-scratch
  ``build_community_qubo`` on it, and a fresh ``FlipDeltaState``;
* ``incremental`` — ``Graph.apply_updates`` (vectorized CSR merge)
  plus ``CommunityQuboPatcher.update`` (coefficient patches replaying
  the builder's float ops, bit-exact by the equivalence harness) plus
  ``FlipDeltaState.repatch`` on the live state, hoisted into a
  per-batch helper exactly as REP006 demands.

Besides the usual text report it writes
``benchmarks/results/stream.json`` with the shape::

    {"benchmark": "stream", "instances": [
        {"n_nodes": ..., "n_variables": ..., "nnz": ...,
         "n_batches": ..., "events_per_batch": ...,
         "recompute_ms_per_batch": ...,
         "incremental_ms_per_batch": ..., "speedup": ...}, ...],
     "min_speedup": ...}

and (full runs only) appends the headline point to the root-level
``BENCH_stream.json`` perf trajectory.

Run standalone with ``python benchmarks/bench_stream.py [--quick]
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
ROOT_TRAJECTORY = Path(__file__).parent.parent / "BENCH_stream.json"
sys.path.insert(0, str(Path(__file__).parent))

from conftest import bench_scale, save_report  # noqa: E402
from _trajectory import append_point  # noqa: E402


def _initial_instance(n_nodes: int, n_communities: int, seed: int):
    from repro.graphs.lfr import lfr_graph
    from repro.qubo import build_community_qubo

    graph, _ = lfr_graph(n_nodes, mixing=0.1, seed=seed)
    built = build_community_qubo(graph, n_communities, backend="sparse")
    return graph, built


def _drift_batch(rng, graph, n_events: int) -> list[tuple]:
    """One seeded churn batch: ~half deletes/reweights, half inserts."""
    events: list[tuple] = []
    edges = list(graph.edges())
    for _ in range(n_events):
        kind = rng.integers(0, 3)
        if kind == 0 and edges:
            u, v, _w = edges[int(rng.integers(0, len(edges)))]
            events.append(("delete", int(u), int(v)))
        elif kind == 1 and edges:
            u, v, _w = edges[int(rng.integers(0, len(edges)))]
            weight = float(rng.uniform(0.25, 2.0))
            events.append(("reweight", int(u), int(v), weight))
        else:
            u = int(rng.integers(0, graph.n_nodes))
            v = int(rng.integers(0, graph.n_nodes))
            if u == v:
                v = (v + 1) % graph.n_nodes
            weight = float(rng.uniform(0.25, 2.0))
            events.append(("insert", u, v, weight))
    return events


def _advance(patcher, state, graph, touched) -> None:
    """Per-batch incremental step (the repro.api.stream pattern)."""
    qubo = patcher.update(graph, touched_nodes=touched)
    state.repatch(qubo.model)


def run_stream(scale: float, n_communities: int = 4) -> dict:
    """Time both maintenance styles across a drifting LFR stream."""
    from repro.graphs.graph import Graph
    from repro.qubo import CommunityQuboPatcher, build_community_qubo
    from repro.qubo.delta import FlipDeltaState

    sizes = [
        max(400, int(round(600 * scale))),
        max(1000, int(round(1600 * scale))),
    ]
    n_batches = max(6, int(round(8 * scale)))
    rng = np.random.default_rng(0)

    instances = []
    for idx, n_nodes in enumerate(sizes):
        graph, built = _initial_instance(
            n_nodes, n_communities, seed=60 + idx
        )
        n = built.model.n_variables
        x0 = (rng.random(n) < 0.5).astype(np.float64)
        events_per_batch = max(4, graph.n_edges // 100)

        # Pre-generate the seeded event stream and, for the recompute
        # consumer, the edge list it would maintain after each batch
        # (maintaining that list is its cheap part; the rebuilds are
        # what it pays per batch).
        batches: list[list[tuple]] = []
        edge_lists: list[list[tuple[int, int, float]]] = []
        current = graph
        for _ in range(n_batches):
            events = _drift_batch(rng, current, events_per_batch)
            current, _ = current.apply_updates(events)
            batches.append(events)
            edge_lists.append(list(current.edges()))

        # CPU time, not wall time: both paths are pure compute, and
        # process_time is immune to the scheduler preemption that
        # dominates wall-clock variance on small shared CI boxes.
        def time_incremental() -> tuple[float, object, object]:
            patcher = CommunityQuboPatcher(built)
            state = FlipDeltaState(built.model, x0.copy())
            current = graph
            elapsed = 0.0
            for events in batches:
                start = time.process_time()
                current, touched = current.apply_updates(events)
                _advance(patcher, state, current, touched)
                elapsed += time.process_time() - start
            return elapsed, patcher, state

        def time_recompute() -> float:
            elapsed = 0.0
            for edges in edge_lists:
                start = time.process_time()
                step_graph = Graph(graph.n_nodes, edges)
                fresh = build_community_qubo(
                    step_graph, n_communities, backend="sparse"
                )
                FlipDeltaState(fresh.model, x0.copy())
                elapsed += time.process_time() - start
            return elapsed

        # The first round warms lazy CSC builds and import caches; the
        # remaining rounds are the measurement.  Rounds are interleaved
        # (inc, rec, inc, rec, ...) so slow CPU-frequency drift hits
        # both paths alike, best-of-5 per path filters the rest, and GC
        # is parked so collection pauses don't land inside a batch.
        import gc

        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            rounds_inc = []
            rounds_rec = []
            for _ in range(5):
                rounds_inc.append(time_incremental())
                rounds_rec.append(time_recompute())
            incremental = min(row[0] for row in rounds_inc)
            recompute = min(rounds_rec)
        finally:
            if gc_was_enabled:
                gc.enable()

        # Internal consistency: the live repatched state must agree
        # with a fresh state on the final patched model (the bit-exact
        # vs-rebuild contract itself is pinned by the hypothesis
        # harness in tests/streaming/test_patch_equivalence.py).
        _, patcher, state = rounds_inc[-1]
        check = FlipDeltaState(patcher.qubo.model, state.x.copy())
        np.testing.assert_allclose(
            state.deltas(), check.deltas(), rtol=1e-9, atol=1e-12
        )

        instances.append(
            {
                "n_nodes": n_nodes,
                "n_variables": n,
                "nnz": int(built.model.nnz),
                "n_batches": int(n_batches),
                "events_per_batch": int(events_per_batch),
                "recompute_ms_per_batch": recompute / n_batches * 1e3,
                "incremental_ms_per_batch": incremental
                / n_batches
                * 1e3,
                "speedup": recompute / max(1e-12, incremental),
            }
        )

    return {
        "benchmark": "stream",
        "scale": scale,
        "n_communities": n_communities,
        "instances": instances,
        "min_speedup": min(row["speedup"] for row in instances),
    }


def report_text(report: dict) -> str:
    """Human-readable table of one streaming-maintenance run."""
    lines = [
        "STREAM — incremental vs recompute per-event-batch QUBO upkeep",
        f"drifting LFR community QUBOs, k={report['n_communities']}",
        "-" * 72,
        f"{'nk':>7} {'nnz':>9} {'events':>7} {'recompute':>11} "
        f"{'incremental':>12} {'speedup':>8}",
    ]
    for row in report["instances"]:
        lines.append(
            f"{row['n_variables']:>7} {row['nnz']:>9} "
            f"{row['events_per_batch']:>7} "
            f"{row['recompute_ms_per_batch']:>9.3f}ms "
            f"{row['incremental_ms_per_batch']:>10.3f}ms "
            f"{row['speedup']:>7.1f}x"
        )
    lines.append(f"min per-batch speedup: {report['min_speedup']:.1f}x")
    return "\n".join(lines)


def save_json(report: dict) -> Path:
    """Persist the JSON report under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "stream.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def append_trajectory_point(report: dict, quick: bool) -> Path:
    """Append the headline point to the root BENCH_stream.json.

    One entry per PR touching the streaming path: the heavier
    instance's per-batch costs and the minimum speedup across sizes.
    """
    row = report["instances"][-1]
    point = {
        "n_variables": row["n_variables"],
        "nnz": row["nnz"],
        "n_batches": row["n_batches"],
        "events_per_batch": row["events_per_batch"],
        "recompute_ms_per_batch": row["recompute_ms_per_batch"],
        "incremental_ms_per_batch": row["incremental_ms_per_batch"],
        "min_speedup": report["min_speedup"],
    }
    return append_point(ROOT_TRAJECTORY, "stream", point, quick=quick)


def test_stream(benchmark):
    """pytest-benchmark entry point, consistent with the other benches."""
    scale = min(bench_scale(), 0.3)
    report = benchmark.pedantic(
        run_stream, args=(scale,), rounds=1, iterations=1
    )
    save_report("stream", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")

    assert len(report["instances"]) == 2
    # Patching must beat a from-scratch rebuild on every instance.
    assert report["min_speedup"] > 2.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="force small instances regardless of REPRO_BENCH_SCALE — "
        "used by CI",
    )
    parser.add_argument(
        "--no-trajectory",
        action="store_true",
        help="skip appending to the root BENCH_stream.json "
        "(CI uses this; trajectory points are committed from full runs)",
    )
    args = parser.parse_args(argv)
    scale = 0.3 if args.quick else bench_scale()
    report = run_stream(scale)
    save_report("stream", report_text(report))
    path = save_json(report)
    print(f"[json saved to {path}]")
    if not args.no_trajectory:
        traj = append_trajectory_point(report, args.quick)
        print(f"[trajectory point appended to {traj}]")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    sys.exit(main())
