"""Outside-in tracing: spans recorded around the library's public calls.

:func:`install` replaces selected functions and methods of the
``repro`` layers with wrappers that time each call.  A wrapper goes on
the attribute *where callers look it up*: ``community/direct.py``
imports ``build_community_qubo`` by name, so the wrapper must replace
``repro.community.direct.build_community_qubo`` — wrapping
``repro.qubo.builders.build_community_qubo`` would record nothing.
Methods (``QhdSolver.solve``, ``EvolutionEngine.evolve`` ...) are
wrapped on their classes.

Spans stay in memory and are appended to ``spans-<pid>.jsonl`` in the
trace directory whenever a thread's outermost span closes.  Forked
pool workers inherit the wrappers but leave through ``os._exit``, so
nothing is left to an exit hook.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

from wholerun.stats import Span, self_times


class Recorder:
    """Per-process span buffer with a per-thread stack of open spans."""

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self._lock = threading.Lock()
        self._buffer: list[dict[str, Any]] = []
        self._local = threading.local()
        self._next_id = 0
        # A pool worker forked while another thread held the lock or
        # had spans buffered must start with its own, empty state.
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self._lock = threading.Lock()
        self._buffer = []
        self._local = threading.local()

    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, parent: int | None) -> dict[str, Any]:
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return {"id": span_id, "name": name, "parent": parent,
                "pid": os.getpid(), "attrs": {}}

    def open(self, name: str) -> dict[str, Any]:
        stack = self._stack()
        record = self._record(name, stack[-1]["id"] if stack else None)
        stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def close(self, record: dict[str, Any]) -> None:
        record["end"] = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self._buffer.append(record)
        if not stack:
            self.flush()

    def add(self, name: str, start: float, end: float,
            attrs: dict[str, Any] | None = None) -> None:
        """Record a finished top-level span (e.g. a future's lifetime)."""
        record = self._record(name, None)
        record.update(start=start, end=end, attrs=attrs or {})
        with self._lock:
            self._buffer.append(record)
        self.flush()

    def flush(self) -> None:
        with self._lock:
            pending, self._buffer = self._buffer, []
        if not pending:
            return
        path = self.directory / f"spans-{os.getpid()}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            handle.writelines(json.dumps(r) + "\n" for r in pending)


def _wrap(recorder: Recorder, owner: Any, attr: str, name: str,
          attrs: Callable[..., dict[str, Any]] | None = None) -> None:
    original = getattr(owner, attr)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        record = recorder.open(name)
        try:
            result = original(*args, **kwargs)
            if attrs is not None:
                record["attrs"] = attrs(args, result)
            return result
        finally:
            recorder.close(record)

    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    setattr(owner, attr, wrapper)


def _wrap_submit(recorder: Recorder, session_cls: Any) -> None:
    """Time ``Session.submit`` from the call until its future is done."""
    original = session_cls.submit

    def submit(*args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        future = original(*args, **kwargs)
        future.add_done_callback(
            lambda _: recorder.add("api.submit", start, time.perf_counter())
        )
        return future

    session_cls.submit = submit


def install(directory: Path) -> Recorder:
    """Wrap the public calls of every ``repro`` layer; return the
    recorder the wrappers write to."""
    from repro.api import session
    from repro.community import direct, multilevel
    from repro.qhd import engine, solver
    from repro.server import wire

    recorder = Recorder(directory)
    # repro.qubo, looked up by name in community/direct.py.
    _wrap(recorder, direct, "build_community_qubo", "qubo.build",
         lambda a, r: {"n_variables": r.model.n_variables,
                       "dense": r.backend == "dense"})
    _wrap(recorder, direct, "decode_assignment", "qubo.decode")
    # repro.community, looked up in direct.py and multilevel.py.
    for module in (direct, multilevel):
        _wrap(recorder, module, "refine_labels", "community.refine",
             lambda a, r: {"moves": int(r[1])})
        _wrap(recorder, module, "modularity", "community.modularity")
    # repro.graphs, looked up in multilevel.py.
    _wrap(recorder, multilevel, "coarsen_to_threshold", "graphs.coarsen",
         lambda a, r: {
             "levels": 0 if r is None else r.n_levels,
             "coarsest_nodes": (a[0].n_nodes if r is None
                                else r.coarsest_graph.n_nodes),
         })
    # repro.qhd: the solver and its engine, on their classes.
    _wrap(recorder, solver.QhdSolver, "solve", "qhd.solve")
    _wrap(recorder, solver, "refine_candidates", "qhd.refine_candidates")
    _wrap(recorder, engine.EvolutionEngine, "evolve", "qhd.evolve",
         lambda a, r: {
             "steps": r.steps_done,
             "psi_mb": a[1].size * a[0].complex_dtype.itemsize / 1e6,
         })
    _wrap(recorder, engine.EvolutionEngine, "measure", "qhd.measure")
    # repro.server and repro.api on the serving path.
    _wrap(recorder, wire, "parse_detect_request", "server.parse")
    _wrap_submit(recorder, session.Session)
    return recorder


def load(directory: Path) -> list[Span]:
    """Every span written under ``directory``, parents resolved to
    list indices within the same process."""
    records = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            records.extend(json.loads(line) for line in handle if line)
    index = {(r["pid"], r["id"]): i for i, r in enumerate(records)}
    return [
        Span(
            name=r["name"],
            start=r["start"],
            end=r["end"],
            parent=(None if r["parent"] is None
                    else index.get((r["pid"], r["parent"]))),
            attrs=r["attrs"],
        )
        for r in records
    ]


def within(spans: Iterable[Span], start: float, end: float) -> list[Span]:
    """Spans that began inside ``[start, end]``, parents re-indexed."""
    spans = list(spans)
    keep = [i for i, s in enumerate(spans) if start <= s.start <= end]
    remap = {old: new for new, old in enumerate(keep)}
    return [
        Span(s.name, s.start, s.end, remap.get(s.parent), s.attrs)
        for s in (spans[i] for i in keep)
    ]


def summarize(spans: list[Span], units: int) -> dict[str, float]:
    """Per-layer metrics from ``spans``, per graph or request (``units``).

    Times are inclusive span durations in ms, except
    ``qhd.solve_self_ms`` (the solver's own time outside evolve,
    measure and candidate refinement).  Layers that never ran read 0.
    """
    selfs = self_times(spans)
    groups: dict[str, list[tuple[Span, float]]] = {}
    for span, own in zip(spans, selfs):
        groups.setdefault(span.name, []).append((span, own))

    def ms(name: str) -> float:
        return sum(s.duration for s, _ in groups.get(name, [])) * 1e3

    def attr_sum(name: str, key: str) -> float:
        return float(sum(s.attrs[key] for s, _ in groups.get(name, [])))

    def attr_mean(name: str, key: str) -> float:
        found = groups.get(name, [])
        return attr_sum(name, key) / len(found) if found else 0.0

    steps = attr_sum("qhd.evolve", "steps")
    return {
        "qhd.solve_self_ms": sum(
            own for _, own in groups.get("qhd.solve", [])) * 1e3 / units,
        "qhd.evolve_ms": ms("qhd.evolve") / units,
        "qhd.steps": steps / units,
        "qhd.step_ms": ms("qhd.evolve") / steps if steps else 0.0,
        "qhd.psi_mb": max((s.attrs["psi_mb"]
                           for s, _ in groups.get("qhd.evolve", [])),
                          default=0.0),
        "qhd.measure_ms": ms("qhd.measure") / units,
        "qhd.refine_candidates_ms": ms("qhd.refine_candidates") / units,
        "community.refine_ms": ms("community.refine") / units,
        "community.refine_calls": len(groups.get("community.refine", []))
        / units,
        "community.refine_moves": attr_sum("community.refine", "moves")
        / units,
        "community.modularity_ms": ms("community.modularity") / units,
        "graphs.coarsen_ms": ms("graphs.coarsen") / units,
        "graphs.coarsen_levels": attr_sum("graphs.coarsen", "levels")
        / units,
        "graphs.coarsest_nodes": attr_mean("graphs.coarsen",
                                           "coarsest_nodes"),
        "qubo.build_ms": ms("qubo.build") / units,
        "qubo.decode_ms": ms("qubo.decode") / units,
        "qubo.n_variables": attr_mean("qubo.build", "n_variables"),
        "qubo.dense_share": attr_mean("qubo.build", "dense"),
    }
