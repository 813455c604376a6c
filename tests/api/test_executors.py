"""Executor-equivalence contracts of the session batch runtime.

The batch contract is backend-independent: a batch run through any
executor (inline sequential loop, persistent thread pool, process pool
with per-worker engine pools) must reproduce the corresponding sequence
of seeded single runs **field by field** — labels, energies, spec echo,
seeds, indices — for any worker count and chunking.  These tests pin
that equivalence with the golden harness's structural differ, plus the
process-mode plumbing around it: clamp-and-warn width resolution,
worker counter merging, the array wire's byte accounting, executor
config round-trips and the atexit default-session hook.
"""

from __future__ import annotations

import atexit
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import repro.api as api
from repro.api import runner, session as session_module
from repro.api.session import Session, SessionError, default_session
from repro.graphs.generators import ring_of_cliques
from repro.qubo import build_community_qubo
from repro.qubo.random_instances import random_qubo
from test_golden import _diff

QHD_SPEC = {
    "detector": "qhd",
    "solver": "qhd",
    "solver_config": {"n_samples": 4, "grid_points": 8, "n_steps": 15},
    "n_communities": 3,
    "seed": 7,
}

SOLVE_SPEC = {
    "solver": "simulated-annealing",
    "solver_config": {"n_sweeps": 40, "n_restarts": 2},
    "seed": 3,
}

#: Per-run timings are wall clock and never reproducible.
VOLATILE_KEYS = frozenset({"timings", "wall_time"})


def _scrub(value):
    """Strip timing fields from a jsonable artifact tree."""
    if isinstance(value, dict):
        return {
            key: _scrub(item)
            for key, item in value.items()
            if key not in VOLATILE_KEYS
        }
    if isinstance(value, list):
        return [_scrub(item) for item in value]
    return value


def _assert_artifacts_identical(expected, got):
    """Field-by-field artifact comparison via the golden differ."""
    assert len(expected) == len(got)
    for want, have in zip(expected, got):
        diffs: list[str] = []
        _diff(
            _scrub(want.to_dict()), _scrub(have.to_dict()), "artifact", diffs
        )
        assert not diffs, "\n".join(diffs)


def _graphs(count=5):
    # Two engine shapes in one batch so process workers exercise their
    # pools with rebinds, not just one cached engine.
    return [ring_of_cliques(3, 4 + (i % 2))[0] for i in range(count)]


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("max_workers", [1, 2, 3])
class TestDetectBatchEquivalence:
    def test_matches_sequential_fresh_runs(self, executor, max_workers):
        graphs = _graphs()
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        with Session(max_workers=3, executor=executor) as session:
            got = session.detect_batch(
                graphs, QHD_SPEC, max_workers=max_workers
            )
        _assert_artifacts_identical(expected, got)


@pytest.mark.parametrize("executor", ["thread", "process"])
class TestSolveBatchEquivalence:
    def test_dense_models(self, executor):
        models = [random_qubo(10, 0.4, seed=i) for i in range(4)]
        expected = [
            runner._solve_one(m, runner._spec_of(SOLVE_SPEC), i)
            for i, m in enumerate(models)
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.solve_batch(models, SOLVE_SPEC)
        _assert_artifacts_identical(expected, got)

    def test_sparse_factor_models(self, executor):
        graph, _ = ring_of_cliques(3, 5)
        model = build_community_qubo(
            graph, n_communities=3, backend="sparse"
        ).model
        assert model.n_factors > 0  # the low-rank wire path is exercised
        models = [model] * 3
        expected = [
            runner._solve_one(m, runner._spec_of(SOLVE_SPEC), i)
            for i, m in enumerate(models)
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.solve_batch(models, SOLVE_SPEC)
        _assert_artifacts_identical(expected, got)


class TestProcessRuntime:
    def test_chunking_is_invisible(self):
        """Different widths shard differently; results cannot differ."""
        graphs = _graphs(7)
        with Session(max_workers=3, executor="process") as session:
            wide = session.detect_batch(graphs, QHD_SPEC)
            narrow = session.detect_batch(graphs, QHD_SPEC, max_workers=2)
        _assert_artifacts_identical(wide, narrow)

    @pytest.mark.parametrize("max_workers", [2, 3])
    def test_mixed_solve_batch_matches_sequential(self, max_workers):
        graph, _ = ring_of_cliques(3, 5)
        sparse = build_community_qubo(
            graph, n_communities=3, backend="sparse"
        ).model
        models = [random_qubo(10, 0.4, seed=i) for i in range(3)]
        models += [sparse, sparse]  # dense and sparse bundles, repeated
        expected = [
            runner._solve_one(m, runner._spec_of(SOLVE_SPEC), i)
            for i, m in enumerate(models)
        ]
        with Session(max_workers=3, executor="process") as session:
            got = session.solve_batch(
                models, SOLVE_SPEC, max_workers=max_workers
            )
        _assert_artifacts_identical(expected, got)

    def test_worker_pool_counters_merge_back(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(6)]
        with Session(max_workers=2, executor="process") as session:
            session.detect_batch(graphs, QHD_SPEC)
            pool_stats = session.stats()["engine_pool"]
        # Each worker misses once per engine shape and hits afterwards;
        # the parent pool never built an engine itself, so nonzero
        # counters prove the per-chunk deltas were merged back.
        assert pool_stats["misses"] >= 1
        assert pool_stats["hits"] + pool_stats["misses"] == 6
        assert pool_stats["setup_seconds"] > 0.0

    def test_pooling_disabled_reaches_workers(self):
        graphs = _graphs(3)
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        with Session(
            max_workers=2, executor="process", pooling=False
        ) as session:
            got = session.detect_batch(graphs, QHD_SPEC)
            assert session.stats()["engine_pool"] is None
        _assert_artifacts_identical(expected, got)

    def test_close_shuts_down_worker_processes(self):
        graphs = _graphs(3)
        session = Session(max_workers=2, executor="process")
        session.detect_batch(graphs, QHD_SPEC)
        executor = session._process_executor
        assert executor is not None
        session.close()
        assert session._process_executor is None
        with pytest.raises(RuntimeError):
            executor.submit(os.getpid)


HAS_DEV_SHM = os.path.isdir("/dev/shm")


def _shm_entries() -> set:
    return set(os.listdir("/dev/shm")) if HAS_DEV_SHM else set()


class TestArrayWire:
    """Process workers get pickled ``to_arrays`` payloads, nothing else."""

    def test_payload_nbytes_matches_arrays(self):
        graph, _ = ring_of_cliques(3, 4)
        tag, payload = runner._encode_input(graph)
        _, u, v, w = payload
        assert runner.payload_nbytes(tag, payload) == (
            u.nbytes + v.nbytes + w.nbytes
        )
        model = random_qubo(6, 0.5, seed=1)
        tag, payload = runner._encode_input(model)
        assert runner.payload_nbytes(tag, payload) == sum(
            value.nbytes
            for value in payload.values()
            if isinstance(value, np.ndarray)
        )
        assert runner.payload_nbytes("object", {"any": "thing"}) == 0

    def test_bytes_shipped_counts_process_inputs(self):
        graphs = _graphs(3)
        expected = sum(
            runner.payload_nbytes(*runner._encode_input(g)) for g in graphs
        )
        with Session(max_workers=2, executor="process") as session:
            session.detect_batch(graphs, QHD_SPEC)
            assert session.stats()["wire"] == {"bytes_shipped": expected}
            session.submit(graphs[0], QHD_SPEC).result()
            shipped = session.stats()["wire"]["bytes_shipped"]
        assert shipped > expected > 0

    def test_thread_backend_ships_nothing(self):
        with Session(max_workers=2, executor="thread") as session:
            session.detect_batch(_graphs(3), QHD_SPEC)
            session.submit(_graphs(1)[0], QHD_SPEC).result()
            assert session.stats()["wire"]["bytes_shipped"] == 0

    def test_wire_knob_is_gone(self):
        with pytest.raises(TypeError, match="wire"):
            Session(wire="pickle")

    def test_worker_exception_mid_batch(self):
        graphs = [ring_of_cliques(3, 4)[0] for _ in range(5)]
        specs = [dict(QHD_SPEC) for _ in range(5)]
        specs[2] = dict(QHD_SPEC, solver="no-such-solver")
        before = _shm_entries()
        with Session(executor="process", max_workers=2) as session:
            with pytest.raises(Exception, match="no-such-solver"):
                session.detect_batch(graphs, specs)
            # The session stays usable for the next batch.
            follow_up = session.detect_batch(graphs[:2], QHD_SPEC)
            assert len(follow_up) == 2
        if HAS_DEV_SHM:
            assert _shm_entries() == before

    def test_no_resource_tracker_warnings_at_exit(self):
        """A fresh interpreter running a process batch exits silently."""
        code = (
            "import repro.api as api\n"
            "from repro.graphs.generators import ring_of_cliques\n"
            "graphs = [ring_of_cliques(3, 4)[0] for _ in range(4)]\n"
            "spec = {'detector': 'qhd', 'solver': 'greedy',\n"
            "        'n_communities': 3, 'seed': 0}\n"
            "with api.Session(executor='process',\n"
            "                 max_workers=2) as session:\n"
            "    session.detect_batch(graphs, spec)\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


@pytest.mark.parametrize("wire", ["pickle"])
@pytest.mark.parametrize("max_workers", [2, 3])
class TestWireModeEquivalence:
    """The pickled array wire reproduces sequential fresh runs.

    ``wire`` names the one process wire there is: pickled ``to_arrays``
    bundles, whose bytes the session counts as shipped.
    """

    def test_detect_matches_sequential_fresh_runs(self, wire, max_workers):
        graphs = _graphs()
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        shipped = sum(
            runner.payload_nbytes(*runner._encode_input(g)) for g in graphs
        )
        with Session(max_workers=3, executor="process") as session:
            got = session.detect_batch(
                graphs, QHD_SPEC, max_workers=max_workers
            )
            assert session.stats()["wire"] == {"bytes_shipped": shipped}
        assert wire == "pickle" and shipped > 0
        _assert_artifacts_identical(expected, got)


class TestPerItemSpecs:
    """A spec list fans out per-item seeds/configs, order-preserving."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_matches_sequential_per_item_runs(self, executor):
        graphs = _graphs(4)
        specs = [dict(QHD_SPEC, seed=100 + i) for i in range(4)]
        expected = [
            runner._detect_one(g, runner._spec_of(s), i)
            for i, (g, s) in enumerate(zip(graphs, specs))
        ]
        with Session(max_workers=2, executor=executor) as session:
            got = session.detect_batch(graphs, specs)
        _assert_artifacts_identical(expected, got)

    def test_length_mismatch_rejected(self):
        graphs = _graphs(3)
        with Session(max_workers=2) as session:
            with pytest.raises(SessionError, match="entries"):
                session.detect_batch(graphs, [QHD_SPEC] * 2)


class TestWidthClamp:
    def test_wider_request_warns_and_clamps(self):
        graphs = _graphs(4)
        with Session(max_workers=2) as session:
            with pytest.warns(RuntimeWarning, match="clamping"):
                got = session.detect_batch(graphs, QHD_SPEC, max_workers=9)
        expected = [
            runner._detect_one(g, runner._spec_of(QHD_SPEC), i)
            for i, g in enumerate(graphs)
        ]
        _assert_artifacts_identical(expected, got)

    def test_narrower_request_does_not_warn(self):
        graphs = _graphs(3)
        with Session(max_workers=3) as session:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                session.detect_batch(graphs, QHD_SPEC, max_workers=2)


class TestExecutorConfig:
    def test_invalid_executor_rejected(self):
        with pytest.raises(SessionError, match="executor"):
            Session(executor="fibers")

    @pytest.mark.parametrize("executor", ["thread", "process", "auto"])
    def test_executor_round_trips(self, executor):
        config = Session(max_workers=2, executor=executor).to_config()
        assert config["executor"] == executor
        assert Session.from_config(config).to_config() == config

    def test_auto_resolves_by_core_count(self):
        resolved = Session(executor="auto").executor_backend
        expected = "process" if (os.cpu_count() or 1) > 1 else "thread"
        assert resolved == expected

    def test_stats_reports_backend(self):
        with Session(executor="process") as session:
            assert session.stats()["executor"] == "process"
        with Session(executor="thread") as session:
            assert session.stats()["executor"] == "thread"


class TestDefaultSessionAtexit:
    def test_atexit_hook_is_registered(self):
        # atexit has no public introspection; the hook must at least be
        # importable and idempotent.
        assert callable(session_module._close_default_session)

    def test_close_hook_closes_and_detaches(self):
        current = default_session()
        assert not current.closed
        session_module._close_default_session()
        assert current.closed
        # Idempotent with no live session.
        session_module._close_default_session()
        replacement = default_session()
        assert replacement is not current and not replacement.closed

    def test_unregister_then_register_round_trip(self):
        # Guard against the hook being registered with arguments that
        # would make interpreter shutdown raise.
        atexit.unregister(session_module._close_default_session)
        atexit.register(session_module._close_default_session)


class TestGraphWireFormat:
    def test_graph_round_trip_exact(self):
        from repro.graphs.graph import Graph

        graph, _ = ring_of_cliques(4, 5)
        clone = Graph.from_arrays(*graph.to_arrays())
        assert clone.n_nodes == graph.n_nodes
        for left, right in zip(clone.edge_arrays(), graph.edge_arrays()):
            np.testing.assert_array_equal(left, right)

    def test_encode_decode_inverse(self):
        graph, _ = ring_of_cliques(3, 4)
        tag, payload = runner._encode_input(graph)
        assert tag == "graph"
        clone = runner._decode_input(tag, payload)
        for left, right in zip(clone.edge_arrays(), graph.edge_arrays()):
            np.testing.assert_array_equal(left, right)

    def test_unknown_objects_fall_back_to_pickle(self):
        tag, payload = runner._encode_input({"not": "a model"})
        assert tag == "object"
        assert runner._decode_input(tag, payload) == {"not": "a model"}


@pytest.mark.parametrize("executor", ["thread", "process", "auto"])
class TestEmptyBatch:
    """An empty input list returns [] on every backend, touching nothing."""

    def test_detect_batch_empty(self, executor):
        with Session(max_workers=2, executor=executor) as session:
            assert session.detect_batch([], QHD_SPEC) == []
            assert session.detect_batch(iter(()), QHD_SPEC) == []
            # No executor was spun up and no run was counted.
            assert session._thread_executor is None
            assert session._process_executor is None
            assert session.stats()["runs"] == 0

    def test_solve_batch_empty(self, executor):
        with Session(max_workers=2, executor=executor) as session:
            assert session.solve_batch([], SOLVE_SPEC) == []
            assert session._thread_executor is None
            assert session._process_executor is None
            assert session.stats()["runs"] == 0

    def test_engine_pool_untouched(self, executor):
        with Session(max_workers=2, executor=executor) as session:
            session.detect_batch([], QHD_SPEC)
            stats = session.stats()["engine_pool"]
            assert stats["hits"] == 0 and stats["misses"] == 0


def test_module_level_empty_batches():
    assert api.detect_batch([], QHD_SPEC) == []
    assert api.solve_batch([], SOLVE_SPEC) == []
