"""The ``serve`` workload: ``POST /detect`` through ``repro serve``.

The server runs with its defaults (``--executor auto``: forked process
workers fed by ``Session.submit``).  One benchmark process is the load:
small seeded LFR graphs with QHD, sent by ``cpu_count`` sender threads
so at most that many requests are in flight.

An untraced run measures, in order:

1. ``setup_s`` — median of fresh launches until ``/healthz`` answers;
2. ``graphs_per_s`` — a closed loop (each sender sends its next request
   when the last one is answered): the server's capacity, the median of
   three short blocks spread over the run;
3. ``latency_p50_ms`` / ``latency_p90_ms`` — an open loop at the fixed
   reference rate, each request timed from when it was due;
4. ``rps_at_slo`` — a binary search of a fixed geometric rate ladder for
   the highest rate whose p90 stays within the latency limit with no
   growing backlog; the value is the send rate achieved in that phase.

Every response is checked; a sample is compared byte for byte with an
in-process ``api.detect`` on the same body.  The run ends with a
SIGTERM drain, after which no worker may survive and ``/dev/shm`` must
hold no new entries.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from wholerun import common, stats, trace

#: Shares of ``--seconds`` per phase (per block for the capacity).
CAPACITY_SHARE = 0.05
REFERENCE_SHARE = 0.35
LADDER_SHARE = 0.1
#: Reference phases send at least this many requests, so the p90 has
#: ten samples beyond it.
MIN_REFERENCE_REQUESTS = 110
MIN_LADDER_REQUESTS = 60
#: Rungs ``reference * LADDER_STEP**i`` for ``-LADDER_BELOW <= i <=
#: LADDER_ABOVE``; adjacent rates are 6% apart.
LADDER_STEP = 1.06
LADDER_BELOW = 12
LADDER_ABOVE = 40
#: Responses compared byte for byte with an in-process run.
IDENTITY_SAMPLE = 6
#: Generator lateness above this flags a phase as invalid.
LATE_FLAG_S = 0.005


@dataclass
class Request:
    body: int
    due: float
    sent: float | None = None
    done: float | None = None
    late: float = 0.0
    status: int = 0
    payload: bytes = b""

    @property
    def ok(self) -> bool:
        return self.status == 200

    def latency(self) -> float:
        """Seconds from due to answered; a miss if not answered 200."""
        if not self.ok or self.done is None:
            return stats.MISS
        return self.done - self.due


@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    shm_before: set[str]


class Client:
    """Seeded request bodies and every request sent, for later checks."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.graphs = common.make_graphs("serve")
        self.bodies = [
            json.dumps({
                "graph": {
                    "n_nodes": g.n_nodes,
                    "edges": [[u, v] if w == 1.0 else [u, v, w]
                              for u, v, w in g.edges()],
                },
                "spec": common.make_spec("serve", seed, i),
            }).encode()
            for i, g in enumerate(self.graphs)
        ]
        self.sent: list[Request] = []
        self._lock = threading.Lock()
        self._next_body = 0

    def next_body(self) -> int:
        with self._lock:
            index = self._next_body % len(self.bodies)
            self._next_body += 1
        return index

    def post(self, server: Server, request: Request) -> None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=60)
        try:
            request.sent = time.perf_counter()
            conn.request("POST", "/detect", self.bodies[request.body],
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            request.payload = response.read()
            request.status = response.status
        except (OSError, http.client.HTTPException):
            request.status = -1
        finally:
            request.done = time.perf_counter()
            conn.close()
        with self._lock:
            self.sent.append(request)


def _get(server: Server, path: str) -> tuple[int, Any]:
    conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _wait_healthy(proc: subprocess.Popen, deadline_s: float = 60.0
                  ) -> tuple[str, int]:
    line = proc.stdout.readline()
    if not line.startswith("serving on http://"):
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.split()[2][len("http://"):].split(":")
    probe = Server(proc, host, int(port), set())
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        try:
            if _get(probe, "/healthz")[0] == 200:
                return host, int(port)
        except (OSError, http.client.HTTPException, ValueError):
            pass
        time.sleep(0.005)
    raise RuntimeError("server never answered /healthz")


def _serve_argv(workdir: Path | None) -> list[str]:
    if workdir is None:
        return [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
    launcher = Path(__file__).with_name("serve_launcher.py")
    return [sys.executable, str(launcher), str(workdir), "--port", "0"]


def _setup_ready(proc: subprocess.Popen) -> None:
    _wait_healthy(proc)
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=60)


def _launch(workdir: Path, trace_dir: Path | None) -> Server:
    shm_before = set(os.listdir("/dev/shm"))
    stderr = (workdir / f"server-{time.monotonic_ns()}.err").open("w")
    proc = subprocess.Popen(
        _serve_argv(trace_dir), cwd=common.ROOT, env=common.child_env(),
        stdout=subprocess.PIPE, stderr=stderr, text=True,
    )
    stderr.close()
    try:
        host, port = _wait_healthy(proc)
    except BaseException:
        proc.kill()
        proc.communicate(timeout=30)
        raise
    return Server(proc, host, port, shm_before)


def _descendants(pid: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    found, stack = set(), [pid]
    while stack:
        for child in children.get(stack.pop(), []):
            if child not in found:
                found.add(child)
                stack.append(child)
    return found


def _hwm_mb(pid: int) -> float:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _tree_peak_rss_mb(server: Server) -> float:
    """Sum of the per-process peak RSS of the server and its workers."""
    pid = server.proc.pid
    return sum(_hwm_mb(p) for p in {pid, *_descendants(pid)})


def _drain(server: Server) -> list[str]:
    """SIGTERM drain; returns what leaked or failed (empty when clean)."""
    pids = _descendants(server.proc.pid)
    server.proc.send_signal(signal.SIGTERM)
    problems = []
    try:
        server.proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        server.proc.kill()
        server.proc.communicate(timeout=30)
        problems.append("server did not drain within 60 s")
    if server.proc.returncode != 0:
        problems.append(f"server exited {server.proc.returncode}")
    deadline = time.perf_counter() + 5.0
    while any(_alive(p) for p in pids):
        if time.perf_counter() > deadline:
            survivors = sorted(p for p in pids if _alive(p))
            problems.append(f"processes survived the drain: {survivors}")
            break
        time.sleep(0.05)
    leaked = set(os.listdir("/dev/shm")) - server.shm_before
    if leaked:
        problems.append(f"/dev/shm entries leaked: {sorted(leaked)}")
    return problems


# ----------------------------------------------------------------------
# Load phases
# ----------------------------------------------------------------------
def _senders() -> int:
    return os.cpu_count() or 1


def closed_loop(client: Client, server: Server, count: int | None = None,
                duration_s: float | None = None) -> float:
    """Each sender posts back to back; returns answered-OK per second."""
    start = time.perf_counter()
    results: list[Request] = []
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                if count is not None and len(results) >= count:
                    return
            if (duration_s is not None
                    and time.perf_counter() - start >= duration_s):
                return
            request = Request(client.next_body(), time.perf_counter())
            client.post(server, request)
            with lock:
                results.append(request)

    threads = [threading.Thread(target=sender) for _ in range(_senders())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(r.done for r in results) - start
    return sum(r.ok for r in results) / elapsed


def open_loop(client: Client, server: Server, rate: float, count: int,
              limit_s: float) -> tuple[stats.Phase, list[Request]]:
    """``count`` requests due every ``1/rate`` s, at most ``cpu_count``
    in flight.  A request still unsent ``limit_s`` after the last due
    time is abandoned and counts as a miss."""
    first_due = time.perf_counter() + 0.05
    requests = [Request(client.next_body(), first_due + i / rate)
                for i in range(count)]
    cutoff = requests[-1].due + limit_s
    order = iter(requests)
    lock = threading.Lock()

    def sender() -> None:
        while True:
            with lock:
                request = next(order, None)
            if request is None:
                return
            free = time.perf_counter()
            if request.due > free:
                time.sleep(request.due - free)
            now = time.perf_counter()
            if now > cutoff:
                continue
            request.late = now - max(request.due, free)
            client.post(server, request)

    threads = [threading.Thread(target=sender) for _ in range(_senders())]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    sent = sorted(r.sent for r in requests if r.sent is not None)
    phase = stats.Phase(
        rate=rate,
        latencies_s=[r.latency() for r in requests],
        lags_s=[r.sent - r.due for r in requests if r.sent is not None],
        achieved_rate=((len(sent) - 1) / (sent[-1] - sent[0])
                       if len(sent) > 1 else 0.0),
        generator_late_s=[r.late for r in requests if r.sent is not None],
    )
    late = stats.percentile(phase.generator_late_s or [0.0], 90)
    flag = "  GENERATOR BEHIND SCHEDULE" if late > LATE_FLAG_S else ""
    p90 = stats.percentile(phase.latencies_s, 90)
    print(f"serve phase {rate:.2f}/s: {count} due, p90 "
          f"{p90 * 1e3:.1f} ms, achieved {phase.achieved_rate:.2f}/s, "
          f"backlog {'growing' if stats.backlog_growing(phase.lags_s, limit_s) else 'steady'}, "
          f"generator late p90 {late * 1e3:.2f} ms{flag}", flush=True)
    return phase, requests


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _scrub(value: Any) -> Any:
    """Drop wall-clock fields (``timings``, ``wall_time``) recursively."""
    if isinstance(value, dict):
        return {k: _scrub(v) for k, v in value.items()
                if k not in ("timings", "wall_time")}
    if isinstance(value, list):
        return [_scrub(v) for v in value]
    return value


def _check_responses(client: Client) -> list[str]:
    """Validate every request sent; compare a fixed sample of bodies
    byte for byte with an in-process ``api.detect``."""
    import repro.api as api
    from repro.server import wire

    k = common.WORKLOADS["serve"]["k"]
    errors = []
    compared: dict[int, bytes] = {}
    for request in client.sent:
        if not request.ok:
            errors.append(f"body {request.body}: HTTP {request.status}")
            continue
        payload = json.loads(request.payload)
        result = payload["result"]
        error = common.check_partition(
            client.graphs[request.body], k, result["labels"],
            result["modularity"])
        if error is not None:
            errors.append(f"body {request.body}: {error}")
        if request.body < IDENTITY_SAMPLE and request.body not in compared:
            compared[request.body] = json.dumps(
                _scrub(payload), sort_keys=True).encode()
    with api.Session() as session:
        for body, served in sorted(compared.items()):
            graph, spec = wire.parse_detect_request(
                json.loads(client.bodies[body]))
            local = session.detect(graph, spec).to_dict()
            if json.dumps(_scrub(local), sort_keys=True).encode() != served:
                errors.append(f"body {body}: response differs from "
                              f"in-process api.detect")
    if len(compared) < IDENTITY_SAMPLE:
        errors.append(f"only {len(compared)} of {IDENTITY_SAMPLE} "
                      f"sampled bodies were answered")
    return errors


def _modularity_mean(client: Client) -> float:
    scores = {}
    for request in client.sent:
        if request.ok:
            scores[request.body] = json.loads(
                request.payload)["result"]["modularity"]
    return statistics.fmean(scores.values()) if scores else 0.0


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, traced: bool, workdir: Path,
        reference_rps: float, limit_ms: float) -> dict[str, Any]:
    start = common.snapshot()
    limit_s = limit_ms / 1e3
    client = Client(seed)
    problems: list[str] = []
    drains = 0
    metrics: dict[str, float] = {}
    if traced:
        metrics, drains = _traced(client, seconds, workdir, reference_rps,
                                  limit_s, problems)
    else:
        metrics["setup_s"] = common.time_setup(_serve_argv(None),
                                               _setup_ready)
        server = _launch(workdir, None)
        try:
            closed_loop(client, server, count=4 * _senders())  # warm-up

            def capacity() -> float:
                return closed_loop(client, server,
                                   duration_s=CAPACITY_SHARE * seconds)

            blocks = [capacity()]
            reference, _ = open_loop(
                client, server, reference_rps,
                max(MIN_REFERENCE_REQUESTS,
                    round(REFERENCE_SHARE * seconds * reference_rps)),
                limit_s)
            metrics.update(_reference_metrics(reference))
            blocks.append(capacity())
            metrics["rps_at_slo"] = _rps_at_slo(
                client, server, reference, max(blocks), seconds, limit_s)
            blocks.append(capacity())
            metrics["graphs_per_s"] = statistics.median(blocks)
            metrics["peak_rss_mb"] = _tree_peak_rss_mb(server)
        finally:
            problems += _drain(server)
            drains += 1
    errors = _check_responses(client) + problems
    for error in errors:
        print(f"correctness: {error}", file=sys.stderr)
    # One operation per request sent and per drain; each error is one
    # failed operation (a refused, broken, invalid or non-identical
    # answer, or a leak after a drain).
    attempted = len(client.sent) + drains
    failed = min(attempted, len(errors))
    if not traced:
        metrics["modularity_mean"] = _modularity_mean(client)
        metrics["success_rate"] = (attempted - failed) / attempted
    common.emit_env(common.environment("serve", start))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def _reference_metrics(phase: stats.Phase) -> dict[str, float]:
    latencies = phase.latencies_s
    n = len(latencies)
    print(f"serve reference: {n} requests, p90 "
          f"{'supported' if stats.supported(n, 90) else 'UNSUPPORTED'} "
          f"({stats.beyond(n, 90)} beyond it)", flush=True)
    return {
        "latency_p50_ms": stats.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": stats.percentile(latencies, 90) * 1e3,
    }


def _rps_at_slo(client: Client, server: Server, reference: stats.Phase,
                capacity: float, seconds: float, limit_s: float) -> float:
    ladder = stats.rate_ladder(reference.rate, LADDER_STEP,
                               below=LADDER_BELOW, above=LADDER_ABOVE)
    lo = LADDER_BELOW if stats.phase_passes(reference, limit_s) else -1
    hi = next((i for i, r in enumerate(ladder) if r > 1.25 * capacity),
              len(ladder))
    hi = max(hi, lo + 1)

    def run_phase(rate: float) -> stats.Phase:
        count = max(MIN_LADDER_REQUESTS, round(LADDER_SHARE * seconds * rate))
        return open_loop(client, server, rate, count, limit_s)[0]

    best, phases = stats.search_ladder(ladder, lo, hi, run_phase, limit_s)
    if best < 0:
        return 0.0
    by_rate = {p.rate: p for p in [reference, *phases]}
    return by_rate[ladder[best]].achieved_rate


@dataclass
class _Window:
    """One reference-rate phase with the server's ``/stats`` around it."""

    phase: stats.Phase
    served: list[Request]
    start: float
    end: float
    before: dict[str, Any]
    after: dict[str, Any]
    depth_max: int

    def service_p50_s(self) -> float:
        return statistics.median(r.done - r.sent for r in self.served)


def _reference_window(client: Client, workdir: Path,
                      trace_dir: Path | None, rate: float, count: int,
                      limit_s: float, problems: list[str]) -> _Window:
    """Launch a server, warm it, run one reference phase, drain it."""
    server = _launch(workdir, trace_dir)
    try:
        closed_loop(client, server, count=4 * _senders())  # warm-up
        before = _get(server, "/stats")[1]
        poller = DepthPoller(server)
        start = time.perf_counter()
        phase, requests = open_loop(client, server, rate, count, limit_s)
        end = time.perf_counter()
        depth_max = poller.stop()
        after = _get(server, "/stats")[1]
    finally:
        problems += _drain(server)
    return _Window(phase, [r for r in requests if r.ok], start, end,
                   before, after, depth_max)


def _traced(client: Client, seconds: float, workdir: Path,
            reference_rps: float, limit_s: float, problems: list[str]
            ) -> tuple[dict[str, float], int]:
    """A reference phase untraced, then one on a traced server; the
    per-layer metrics come from the traced phase's spans."""
    count = max(MIN_REFERENCE_REQUESTS,
                round(REFERENCE_SHARE * seconds * reference_rps))
    untraced = _reference_window(client, workdir, None, reference_rps,
                                 count, limit_s, problems)
    window = _reference_window(client, workdir, workdir, reference_rps,
                               count, limit_s, problems)
    spans = trace.within(trace.load(workdir), window.start, window.end)
    metrics = trace.summarize(
        spans, max(1, sum(1 for s in spans if s.name == "api.submit")))
    artifacts = [json.loads(r.payload) for r in window.served]
    submit_s = sum(s.duration for s in spans if s.name == "api.submit")
    parse_s = sum(s.duration for s in spans if s.name == "server.parse")
    total_s = sum(a["timings"]["total"] for a in artifacts)
    client_s = sum(r.done - r.sent for r in window.served)
    worker_s = sum(t for s, t in zip(spans, stats.self_times(spans))
                   if s.name not in ("api.submit", "server.parse"))
    before, after = window.before, window.after
    pool0 = before["session"]["engine_pool"]
    pool1 = after["session"]["engine_pool"]
    hits = pool1["hits"] - pool0["hits"]
    misses = pool1["misses"] - pool0["misses"]
    n = len(window.served)
    metrics.update({
        "qhd.pool_hit_rate": hits / max(1, hits + misses),
        "api.build_ms": statistics.fmean(
            a["timings"]["build"] for a in artifacts) * 1e3,
        "api.dispatch_ms": (submit_s - total_s) / n * 1e3,
        "api.wire_bytes": (after["session"]["wire"]["bytes_shipped"]
                           - before["session"]["wire"]["bytes_shipped"]
                           ) / n,
        "server.parse_ms": parse_s / n * 1e3,
        "server.http_ms": (client_s - parse_s - submit_s) / n * 1e3,
        "server.queue_depth_max": float(window.depth_max),
        "server.shed": float(after["server"]["shed"]
                             - before["server"]["shed"]),
        "coverage": (parse_s + submit_s - total_s + worker_s) / client_s,
        "trace_overhead": (window.service_p50_s()
                           / untraced.service_p50_s() - 1.0),
        "generator_late_ms_p90": stats.percentile(
            window.phase.generator_late_s, 90) * 1e3,
    })
    return metrics, 2


class DepthPoller:
    """Poll ``/stats`` queue depth in the background; keep the maximum."""

    def __init__(self, server: Server, interval_s: float = 0.2) -> None:
        self.maximum = 0
        self._stop = threading.Event()
        self._server = server
        self._interval = interval_s
        self._thread = threading.Thread(target=self._loop)
        self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            depth = _get(self._server, "/stats")[1]["server"]["queue_depth"]
            self.maximum = max(self.maximum, depth)

    def stop(self) -> int:
        self._stop.set()
        self._thread.join()
        return self.maximum
