"""Whole-run benchmark of the library: ``api.detect`` on the direct and
multilevel paths, and ``POST /detect`` through ``repro serve``.

Run from the repository root::

    python3 wholerun/run.py --workload direct --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``,
``--trace 1`` every per-layer metric (from a separate traced run).  The
last line of standard output is the result object.  ``--self-check``
repeats workloads with distinct seeds and checks each end-to-end
metric's quartile spread against its bound::

    python3 wholerun/run.py --self-check --repeats 5 --workload direct
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from wholerun import common  # noqa: E402

common.pin_threads()
sys.path.insert(0, str(common.SRC))

BENCHMARK = common.ROOT / "BENCHMARK.json"


def _metric_table(traced: bool) -> dict[str, str]:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if traced else "end_to_end"]}


def run_once(args: argparse.Namespace) -> int:
    traced = bool(args.trace)
    workdir = common.ROOT / f".wholerun_work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "serve":
            from wholerun import serve

            outcome = serve.run(args.seed, args.seconds, traced, workdir,
                                args.reference_rps, args.limit_ms)
        else:
            from wholerun import offline

            outcome = offline.run(args.workload, args.seed, args.seconds,
                                  traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = _metric_table(traced)
    measured = outcome["metrics"]
    if set(measured) != set(units):
        print(f"metric set mismatch: missing {sorted(set(units) - set(measured))}"
              f", unexpected {sorted(set(measured) - set(units))}",
              file=sys.stderr)
        return 3
    common.emit({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(measured[name]), "unit": unit}
                    for name, unit in units.items()},
    })
    return 0


def self_check(args: argparse.Namespace) -> int:
    """Repeat each workload with seeds 1..N; exit 1 if any end-to-end
    spread (except ``setup_s``, whose medians are compared instead)
    exceeds its bound or any run fails."""
    from wholerun import stats

    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([args.workload] if args.workload
                 else [w["name"] for w in spec["workloads"]])
    ok = True
    summary = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        for seed in range(1, args.repeats + 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"] + args.passthrough,
                cwd=common.ROOT, capture_output=True, text=True,
                timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}")
                ok = False
                continue
            env = json.loads(lines[-2][len("env "):])
            print(f"{workload} seed {seed}: steal {env['steal_share']} "
                  f"loadavg {env['loadavg_end'][0]}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            series = values.get(name, [])
            if len(series) < 2:
                ok = False
                continue
            q1, median, q3, spread = stats.quartile_spread(series)
            gated = name != "setup_s"
            verdict = ("ok" if spread <= bound else
                       "EXCEEDS" if gated else "over (not gated)")
            ok &= verdict != "EXCEEDS"
            rows[name] = {"median": median, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bound,
                          "values": series}
            print(f"{workload:10s} {name:16s} {metric['unit']:6s} "
                  f"median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
                  f"spread {spread:7.4f}  bound {bound:5.3f}  {verdict}",
                  flush=True)
        summary[workload] = rows
    print(json.dumps({"steady": ok, "workloads": summary}))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("direct", "multilevel", "serve"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference-rps", type=float, default=14.0,
                        help="serve: fixed open-loop reference rate")
    parser.add_argument("--limit-ms", type=float, default=250.0,
                        help="serve: p90 latency limit of rps_at_slo")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--repeats", type=int, default=10)
    args = parser.parse_args(argv)
    args.passthrough = ["--reference-rps", str(args.reference_rps),
                        "--limit-ms", str(args.limit_ms)]
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"no library source under {common.SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
