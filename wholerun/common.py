"""Shared pieces of the whole-run workloads: thread pinning, the
environment record, seeded inputs, correctness checks and set-up timing.

Importing this module imports neither numpy nor the library: the
thread pinning must reach the environment before numpy loads BLAS.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: BLAS / OpenMP pinned to one thread in the benchmark process and in
#: every process it launches: the serve workload's two pool workers
#: would otherwise oversubscribe a 2-CPU box.
PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Fresh launches timed per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 7

#: Seeded LFR inputs and the spec each workload runs.  ``direct`` is the
#: paper-default QHD (32 samples x 32 grid x 200 steps, complex128) on
#: 800 dense QUBO variables; ``multilevel`` coarsens n=5000 graphs to a
#: QHD base solve; ``serve`` sends many small requests.
#:
#: Each workload's graph list is the same on every run: QHD evolution
#: time depends on the graph (two n=200 graphs differ by ~12%), so a
#: list drawn per run seed would add that to the run-to-run spread.
#: The run seed drives the solver seeds of the specs instead.
WORKLOADS: dict[str, dict[str, Any]] = {
    "direct": {
        "n_nodes": 200, "mixing": 0.2, "k": 4, "graphs": 3,
        "detector_config": {},
    },
    "multilevel": {
        "n_nodes": 5000, "mixing": 0.2, "k": 8, "graphs": 3,
        "detector_config": {"qhd_samples": 16, "qhd_steps": 40},
    },
    "serve": {
        "n_nodes": 40, "mixing": 0.2, "k": 4, "graphs": 24,
        "detector_config": {"qhd_samples": 8, "qhd_steps": 20,
                            "qhd_grid_points": 16},
    },
}


def pin_threads() -> None:
    """Pin BLAS/OpenMP for this process (call before numpy is imported)."""
    os.environ.update(PINNED_THREADS)


def child_env() -> dict[str, str]:
    """Environment for launched interpreters: pinned, library on path."""
    env = dict(os.environ, **PINNED_THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def make_graphs(workload: str) -> list[Any]:
    """The workload's fixed graph list: same size, graph seeds 0, 1, ..."""
    from repro.graphs.lfr import lfr_graph

    cfg = WORKLOADS[workload]
    return [
        lfr_graph(cfg["n_nodes"], mixing=cfg["mixing"], seed=i)[0]
        for i in range(cfg["graphs"])
    ]


def make_spec(workload: str, seed: int, index: int) -> dict[str, Any]:
    """The spec run on graph ``index``; its solver seed comes from the
    run seed."""
    cfg = WORKLOADS[workload]
    return {
        "detector": "qhd",
        "detector_config": dict(cfg["detector_config"]),
        "n_communities": cfg["k"],
        "seed": seed * 1000 + index,
    }


def check_partition(graph: Any, k: int, labels: Any, reported: float
                    ) -> str | None:
    """``None`` if ``labels`` is a valid partition of ``graph`` into at
    most ``k`` communities whose modularity matches ``reported``;
    otherwise what is wrong."""
    import numpy as np

    from repro.community.modularity import modularity

    labels = np.asarray(labels)
    if labels.shape != (graph.n_nodes,):
        return f"labels have shape {labels.shape}, want ({graph.n_nodes},)"
    if labels.dtype.kind not in "iu":
        return f"labels have dtype {labels.dtype}"
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        return f"labels outside [0, {k})"
    recomputed = modularity(graph, labels)
    if not math.isclose(recomputed, reported, rel_tol=1e-12,
                        abs_tol=1e-12):
        return f"modularity {reported!r} != recomputed {recomputed!r}"
    return None


def time_setup(argv: list[str], ready: Any) -> float:
    """Median seconds from launching ``argv`` until ``ready(proc)``
    returns, over :data:`SETUP_LAUNCHES` fresh interpreters.

    ``ready`` blocks until the launched process accepts work and then
    stops it; it must leave no process behind.
    """
    times = []
    for _ in range(SETUP_LAUNCHES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        try:
            ready(proc)
            times.append(time.perf_counter() - start)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.communicate(timeout=30)
    return statistics.median(times)


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS reports, or ``None`` if unknown."""
    import numpy  # noqa: F401  (loads BLAS)

    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _l2_bytes() -> int | None:
    size = Path("/sys/devices/system/cpu/cpu0/cache/index2/size")
    try:
        text = size.read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def snapshot() -> dict[str, list[float]]:
    """Load average and the aggregate CPU time counters, at one instant."""
    cpu = Path("/proc/stat").read_text().splitlines()[0].split()[1:9]
    return {
        "loadavg": [float(x)
                    for x in Path("/proc/loadavg").read_text().split()[:3]],
        "cpu": [float(x) for x in cpu],
    }


def psi_mb(workload: str) -> float:
    """Computed size of the QHD wavefunction of the workload's largest
    solve: samples x variables x grid points x 16 bytes (complex128).
    On ``multilevel`` the variables are bounded by the coarsening
    threshold (150 nodes) times k."""
    cfg = WORKLOADS[workload]
    dc = cfg["detector_config"]
    nodes = min(cfg["n_nodes"], 150) if workload == "multilevel" else (
        cfg["n_nodes"])
    return (dc.get("qhd_samples", 32) * nodes * cfg["k"]
            * dc.get("qhd_grid_points", 32) * 16 / 1e6)


def environment(workload: str, start: dict[str, list[float]]
                ) -> dict[str, Any]:
    """The run's environment record; ``start`` is a :func:`snapshot`
    taken when the run began.  ``steal_share`` is the share of CPU time
    the hypervisor took from this machine during the run."""
    import numpy

    end = snapshot()
    used = [b - a for a, b in zip(start["cpu"], end["cpu"])]
    l2 = _l2_bytes()
    return {
        "cpu_count": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "pinned": PINNED_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_digest": _source_digest(),
        "loadavg_start": start["loadavg"],
        "loadavg_end": end["loadavg"],
        "steal_share": round(used[7] / sum(used), 4) if sum(used) else None,
        "psi_mb_computed": round(psi_mb(workload), 3),
        "l2_mb": None if l2 is None else l2 / 1e6,
    }


def emit_env(env: dict[str, Any]) -> None:
    """Print the environment record as one ``env {...}`` line."""
    print("env " + json.dumps(env), flush=True)


def emit(result: dict[str, Any]) -> None:
    """Print the result object as the last line of standard output."""
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
