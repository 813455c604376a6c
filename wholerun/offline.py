"""The offline workloads: ``api.detect`` on the direct and the
multilevel path, one benchmark-owned :class:`repro.api.Session`.

An untraced run has two phases over the run's fixed graph list:

* sequential — one caller, graphs in list order (cycling) until the
  phase's share of ``--seconds`` is spent and at least the workload's
  minimum count ran: ``latency_p50_ms``, the median wall time;
  ``graphs_per_s``, the list's length over one pass of the list at each
  graph's median wall time; ``latency_p90_ms``, the nearest-rank p90
  over the list's graphs of each graph's median wall time (with three
  graphs, the slowest graph's median).  The p90 is over inputs, not
  over time: a run holds too few graphs to support a p90 of single
  walls (the run says so).  Per-graph medians keep a burst of load
  from the machine's other tenants on one graph out of both;
* pooled — one caller submitting, graph after graph, to a second
  session on the process backend with one worker (the path ``repro
  serve`` and batch callers take) until the phase's share is spent:
  ``rps_at_slo``, the share of graphs that finished within the
  workload's latency limit over the median graph wall time.  One
  worker, not one per CPU: with every CPU busy, load from the
  machine's other tenants on any CPU slows every graph, and on a
  shared 2-CPU VM that spread a per-CPU rate by 0.18-0.23 of its median
  from run to run.

``modularity_mean`` is the mean over the list's graphs; every graph of
the list runs in one of the phases and its result is seeded.

A traced run times the first graphs untraced, installs the wrappers of
:mod:`wholerun.trace` and times the same graphs again.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path
from typing import Any

from wholerun import common, stats, trace

#: Share of ``--seconds`` given to the sequential phase, and the fewest
#: graphs it runs.  A direct graph takes 10-16 s on a 2-CPU box, so a
#: direct run holds one or two sequential graphs.  Nine multilevel
#: graphs (~3 s each) are three passes over the list, so each graph's
#: median is over three walls.
SEQUENTIAL_SHARE = 0.45
POOLED_SHARE = 0.35
MIN_SEQUENTIAL = {"direct": 1, "multilevel": 9}

#: Per-graph latency limit of ``rps_at_slo`` on the offline workloads.
LATENCY_LIMIT_S = {"direct": 30.0, "multilevel": 15.0}

#: Graphs timed untraced and then traced in a ``--trace 1`` run.
TRACE_GRAPHS = {"direct": 1, "multilevel": 2}

_SETUP_SNIPPET = (
    "import repro.api as api\n"
    "session = api.Session()\n"
    "print('ready', flush=True)\n"
    "session.close()\n"
)


def _ready(proc: Any) -> None:
    if proc.stdout.readline().strip() != "ready":
        raise RuntimeError(f"set-up launch failed: {proc.stderr.read()}")
    proc.wait(timeout=30)


class _Runner:
    """Runs and checks graphs of one workload through one session,
    and, once :meth:`start_workers` ran, through a process-backed one."""

    def __init__(self, workload: str, seed: int) -> None:
        import repro.api as api
        from repro.graphs.lfr import lfr_graph

        self.workload = workload
        self.seed = seed
        self.k = common.WORKLOADS[workload]["k"]
        self.graphs = common.make_graphs(workload)
        self.session = api.Session()
        self.workers: Any = None
        self.errors: list[str] = []
        self.attempted = 0
        self.scores: dict[int, float] = {}
        # Warm-up: first calls through every code path, on a small graph.
        self._small = lfr_graph(40, mixing=0.2, seed=0)[0]
        self.session.detect(self._small, common.make_spec(workload, seed, 0))

    def start_workers(self) -> None:
        """Open the process-backed session with one worker and warm it
        up on the small graph."""
        import repro.api as api

        self.workers = api.Session(executor="process", max_workers=1)
        self.workers.submit(
            self._small, common.make_spec(self.workload, self.seed, 0)
        ).result()

    def close(self) -> None:
        self.session.close()
        if self.workers is not None:
            self.workers.close()

    def run(self, index: int, pooled: bool = False) -> tuple[float, Any]:
        """Detect on graph ``index`` (cycling), in this process or, if
        ``pooled``, on a worker; return (wall s, artifact).

        A failed correctness check is recorded in :attr:`errors`.
        """
        slot = index % len(self.graphs)
        graph = self.graphs[slot]
        spec = common.make_spec(self.workload, self.seed, slot)
        start = time.perf_counter()
        if pooled:
            artifact = self.workers.submit(graph, spec).result()
        else:
            artifact = self.session.detect(graph, spec)
        wall = time.perf_counter() - start
        result = artifact.result
        error = common.check_partition(graph, self.k, result.labels,
                                       result.modularity)
        self.attempted += 1
        self.scores[slot] = result.modularity
        if error is not None:
            self.errors.append(f"graph {slot}: {error}")
        return wall, artifact

    def pool_counts(self) -> tuple[int, int]:
        pool = self.session.stats()["engine_pool"]
        return pool["hits"], pool["misses"]


def _sequential(runner: _Runner, budget_s: float, minimum: int
                ) -> list[float]:
    walls: list[float] = []
    start = time.perf_counter()
    while (len(walls) < minimum
           or time.perf_counter() - start < budget_s):
        walls.append(runner.run(len(walls))[0])
    return walls


def _pooled(runner: _Runner, budget_s: float, limit_s: float,
            index: int) -> tuple[float, list[float]]:
    """Graphs per second finishing within ``limit_s`` through one process
    worker, from the median graph wall time, continuing the list's cycle
    from ``index``; and the graphs' wall times."""
    runner.start_workers()
    walls: list[float] = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < budget_s:
        walls.append(runner.run(index + len(walls), pooled=True)[0])
    within = sum(1 for w in walls if w <= limit_s) / len(walls)
    return within / statistics.median(walls), walls


def run(workload: str, seed: int, seconds: float, traced: bool,
        workdir: Path) -> dict[str, Any]:
    start = common.snapshot()
    metrics: dict[str, float] = {}
    if not traced:
        metrics["setup_s"] = common.time_setup(
            [sys.executable, "-c", _SETUP_SNIPPET], _ready)
    runner = _Runner(workload, seed)
    try:
        _measure(runner, workload, seconds, traced, workdir, metrics)
    finally:
        runner.close()
    if not traced and len(runner.scores) != len(runner.graphs):
        runner.errors.append(f"only {len(runner.scores)} of "
                             f"{len(runner.graphs)} graphs ran")
    failed = len(runner.errors)
    for error in runner.errors:
        print(f"correctness: {error}", file=sys.stderr)
    if not traced:
        metrics["success_rate"] = (runner.attempted - failed) / max(
            1, runner.attempted)
    common.emit_env(common.environment(workload, start))
    return {"attempted": runner.attempted, "failed": failed,
            "metrics": metrics}


def _measure(runner: _Runner, workload: str, seconds: float, traced: bool,
             workdir: Path, metrics: dict[str, float]) -> None:
    if traced:
        metrics.update(_traced(runner, workdir))
        return
    walls = _sequential(runner, SEQUENTIAL_SHARE * seconds,
                        MIN_SEQUENTIAL[workload])
    rps_at_slo, pooled = _pooled(
        runner, POOLED_SHARE * seconds, LATENCY_LIMIT_S[workload],
        index=len(walls))
    print(f"{workload}: {len(walls)} sequential + {len(pooled)} "
          f"pooled graphs; a p90 of {len(walls)} walls would be "
          f"{'supported' if stats.supported(len(walls), 90) else 'unsupported'}",
          flush=True)
    print(f"sequential walls s: {[round(w, 3) for w in walls]}", flush=True)
    print(f"pooled walls s: {[round(w, 3) for w in pooled]}", flush=True)
    size = len(runner.graphs)
    per_graph = [statistics.median(walls[slot::size])
                 for slot in range(min(size, len(walls)))]
    metrics.update({
        "graphs_per_s": len(per_graph) / sum(per_graph),
        "latency_p50_ms": statistics.median(walls) * 1e3,
        "latency_p90_ms": stats.percentile(per_graph, 90) * 1e3,
        "rps_at_slo": rps_at_slo,
        "modularity_mean": statistics.fmean(runner.scores.values()),
        "peak_rss_mb": common.peak_rss_mb_self(),
    })


def _traced(runner: _Runner, workdir: Path) -> dict[str, float]:
    count = TRACE_GRAPHS[runner.workload]
    untraced = [runner.run(i)[0] for i in range(count)]
    recorder = trace.install(workdir)
    hits0, misses0 = runner.pool_counts()
    wire0 = runner.session.stats()["wire"]["bytes_shipped"]
    walls, artifacts = [], []
    for i in range(count):
        root = recorder.open("run")
        try:
            wall, artifact = runner.run(i)
        finally:
            recorder.close(root)
        walls.append(wall)
        artifacts.append(artifact)
    hits, misses = runner.pool_counts()
    hits, misses = hits - hits0, misses - misses0
    spans = trace.load(workdir)
    metrics = trace.summarize(spans, count)
    metrics.update({
        "qhd.pool_hit_rate": hits / max(1, hits + misses),
        "api.build_ms": statistics.fmean(
            a.timings["build"] for a in artifacts) * 1e3,
        "api.dispatch_ms": statistics.fmean(
            w - a.timings["total"] for w, a in zip(walls, artifacts)) * 1e3,
        "api.wire_bytes": (runner.session.stats()["wire"]["bytes_shipped"]
                           - wire0) / count,
        "coverage": stats.coverage(spans, "run"),
        "trace_overhead": sum(walls) / sum(untraced) - 1.0,
        # The serving path and its load generator: not on this path.
        "server.parse_ms": 0.0,
        "server.http_ms": 0.0,
        "server.queue_depth_max": 0.0,
        "server.shed": 0.0,
        "generator_late_ms_p90": 0.0,
    })
    return metrics
