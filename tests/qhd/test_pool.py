"""Engine pool contracts: keying, leasing, rebinding, bit-exact reuse."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.hamiltonian.schedules import get_schedule
from repro.qhd import EnginePool, QhdSolver, attach_engine_pool, engine_key
from repro.qhd.engine import EvolutionEngine
from repro.qhd.pool import schedule_key
from repro.qubo import SparseQuboModel
from repro.qubo.random_instances import random_qubo

KNOBS = dict(n_samples=3, grid_points=8, n_steps=6, t_final=1.0)


@pytest.fixture
def model():
    return random_qubo(5, 0.5, seed=0)


@pytest.fixture
def schedule():
    return get_schedule("qhd-default", 1.0)


class TestEngineKey:
    def test_equal_value_schedules_share_keys(self, model):
        a = get_schedule("qhd-default", 1.0)
        b = get_schedule("qhd-default", 1.0)
        assert schedule_key(a) == schedule_key(b)
        assert engine_key(model, a, **KNOBS) == engine_key(model, b, **KNOBS)

    def test_different_parameters_split_keys(self, model, schedule):
        base = engine_key(model, schedule, **KNOBS)
        assert engine_key(
            model, schedule, **{**KNOBS, "grid_points": 16}
        ) != base
        assert engine_key(
            model, schedule, **{**KNOBS, "n_steps": 7}
        ) != base
        assert engine_key(
            model, schedule, **KNOBS, dtype="complex64"
        ) != base
        other_schedule = get_schedule("linear", 1.0)
        assert engine_key(model, other_schedule, **KNOBS) != base

    def test_variable_count_is_part_of_the_key(self, schedule):
        small = random_qubo(4, 0.5, seed=1)
        large = random_qubo(9, 0.5, seed=1)
        assert engine_key(small, schedule, **KNOBS) != engine_key(
            large, schedule, **KNOBS
        )

    def test_model_identity_is_not(self, schedule):
        a = random_qubo(5, 0.5, seed=1)
        b = random_qubo(5, 0.5, seed=2)
        assert engine_key(a, schedule, **KNOBS) == engine_key(
            b, schedule, **KNOBS
        )


class TestLeasing:
    def test_miss_then_hit(self, model, schedule):
        pool = EnginePool()
        with pool.lease(model, schedule, **KNOBS) as first:
            pass
        with pool.lease(model, schedule, **KNOBS) as second:
            assert second is first
        stats = pool.stats()
        assert stats["misses"] == 1 and stats["hits"] == 1
        assert stats["setup_seconds"] > 0

    def test_concurrent_leases_are_distinct_engines(self, model, schedule):
        pool = EnginePool()
        with pool.lease(model, schedule, **KNOBS) as a:
            with pool.lease(model, schedule, **KNOBS) as b:
                assert a is not b
        assert pool.stats()["misses"] == 2
        assert pool.stats()["idle"] == 2

    def test_rebind_swaps_model_and_scale(self, schedule):
        pool = EnginePool()
        first = random_qubo(5, 0.5, seed=3)
        second = random_qubo(5, 0.5, seed=4)
        with pool.lease(first, schedule, energy_scale=2.0, **KNOBS) as e:
            assert e.model is first and e.energy_scale == 2.0
        with pool.lease(second, schedule, energy_scale=3.0, **KNOBS) as e:
            assert e.model is second and e.energy_scale == 3.0

    def test_release_scrubs_run_state(self, model, schedule):
        pool = EnginePool()
        with pool.lease(model, schedule, **KNOBS) as engine:
            pass
        assert engine.model is None
        with pytest.raises(SimulationError, match="released"):
            engine.evolve(
                np.ones((3, 5, 8), dtype=np.complex128),
                np.random.default_rng(0),
            )

    def test_rebind_rejects_wrong_width(self, model, schedule):
        engine = EvolutionEngine(model, schedule, **KNOBS)
        with pytest.raises(SimulationError, match="rebind"):
            engine.rebind(random_qubo(6, 0.5, seed=0))

    def test_idle_cap_discards_overflow(self, model, schedule):
        pool = EnginePool(max_idle_per_key=1)
        leases = [pool.lease(model, schedule, **KNOBS) for _ in range(3)]
        engines = [lease.__enter__() for lease in leases]
        assert len({id(e) for e in engines}) == 3
        for lease in leases:
            lease.__exit__(None, None, None)
        stats = pool.stats()
        assert stats["idle"] == 1 and stats["discarded"] == 2
        assert len(pool) == 1

    def test_global_idle_bound_evicts_lru_shapes(self, schedule):
        """Sweeping many shapes cannot pin one workspace per shape."""
        pool = EnginePool(max_idle_per_key=4, max_idle_total=3)
        models = {n: random_qubo(n, 0.5, seed=n) for n in (4, 5, 6, 7)}
        for n in (4, 5, 6, 7):  # four distinct keys, one engine each
            with pool.lease(models[n], schedule, **KNOBS):
                pass
        stats = pool.stats()
        assert stats["idle"] == 3 and stats["discarded"] == 1
        # The oldest shape (n=4) was evicted; a re-lease must miss.
        with pool.lease(models[4], schedule, **KNOBS):
            pass
        assert pool.stats()["misses"] == 5
        # n=7 is still cached; its re-lease hits.
        with pool.lease(models[7], schedule, **KNOBS):
            pass
        assert pool.stats()["hits"] == 1

    def test_lease_hit_refreshes_lru_position(self, schedule):
        pool = EnginePool(max_idle_total=2)
        a = random_qubo(4, 0.5, seed=1)
        b = random_qubo(5, 0.5, seed=1)
        c = random_qubo(6, 0.5, seed=1)
        for m in (a, b):
            with pool.lease(m, schedule, **KNOBS):
                pass
        with pool.lease(a, schedule, **KNOBS):  # touch a: b becomes LRU
            pass
        with pool.lease(c, schedule, **KNOBS):  # overflow evicts b
            pass
        with pool.lease(a, schedule, **KNOBS):
            pass
        assert pool.stats()["hits"] == 2  # both a-leases after the first
        with pool.lease(b, schedule, **KNOBS):
            pass
        assert pool.stats()["hits"] == 2  # b was evicted: miss

    def test_invalid_total_cap_rejected(self):
        with pytest.raises(SimulationError, match="max_idle_total"):
            EnginePool(max_idle_total=-1)

    def test_clear_drops_idle_engines(self, model, schedule):
        pool = EnginePool()
        with pool.lease(model, schedule, **KNOBS):
            pass
        assert len(pool) == 1
        pool.clear()
        assert len(pool) == 0

    def test_lease_context_is_single_use(self, model, schedule):
        pool = EnginePool()
        lease = pool.lease(model, schedule, **KNOBS)
        with lease:
            pass
        with pytest.raises(SimulationError, match="lease"):
            lease.__enter__()

    def test_invalid_cap_rejected(self):
        with pytest.raises(SimulationError, match="max_idle_per_key"):
            EnginePool(max_idle_per_key=-1)


class TestPooledBitExactness:
    """Pooled runs must be bit-for-bit identical to fresh-engine runs."""

    CASES = [
        pytest.param({"dtype": "complex128"}, id="dirichlet-c128"),
        pytest.param({"dtype": "complex64"}, id="dirichlet-c64"),
    ]

    @staticmethod
    def _solver(**extra):
        return QhdSolver(
            n_samples=5, grid_points=16, n_steps=25, shots=3, seed=42,
            **extra,
        )

    @pytest.mark.parametrize("extra", CASES)
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_reused_engine_matches_fresh(self, extra, sparse):
        model = random_qubo(8, 0.4, seed=9)
        if sparse:
            model = SparseQuboModel.from_dense(model)
        other = random_qubo(8, 0.4, seed=10)
        fresh = self._solver(**extra).solve_detailed(model)

        pool = EnginePool()
        pooled_solver = self._solver(**extra).bind_engine_pool(pool)
        # Populate the pool with an engine used on a *different* model,
        # so the checked run exercises the rebind-and-reuse path.
        pooled_solver.solve_detailed(other)
        pooled = pooled_solver.solve_detailed(model)
        assert pool.stats()["hits"] >= 1

        np.testing.assert_array_equal(fresh.samples, pooled.samples)
        np.testing.assert_array_equal(fresh.energies, pooled.energies)
        np.testing.assert_array_equal(
            fresh.mean_positions, pooled.mean_positions
        )

    def test_interleaved_shapes_stay_exact(self):
        """Alternating shapes through one pool never cross-contaminate."""
        pool = EnginePool()
        small = random_qubo(4, 0.6, seed=1)
        large = random_qubo(7, 0.4, seed=2)
        solver_small = QhdSolver(
            n_samples=4, grid_points=8, n_steps=10, seed=5
        ).bind_engine_pool(pool)
        solver_large = QhdSolver(
            n_samples=4, grid_points=16, n_steps=12, seed=5
        ).bind_engine_pool(pool)
        expected_small = QhdSolver(
            n_samples=4, grid_points=8, n_steps=10, seed=5
        ).solve_detailed(small)
        expected_large = QhdSolver(
            n_samples=4, grid_points=16, n_steps=12, seed=5
        ).solve_detailed(large)
        for _ in range(3):
            got_small = solver_small.solve_detailed(small)
            got_large = solver_large.solve_detailed(large)
            np.testing.assert_array_equal(
                expected_small.energies, got_small.energies
            )
            np.testing.assert_array_equal(
                expected_large.energies, got_large.energies
            )
        assert pool.stats()["keys"] == 2

    def test_concurrent_pooled_solves_match_sequential(self):
        """Leases under thread pressure never alias workspace buffers."""
        pool = EnginePool(max_idle_per_key=8)
        models = [random_qubo(6, 0.5, seed=20 + i) for i in range(8)]

        def pooled_run(model):
            solver = QhdSolver(
                n_samples=4, grid_points=8, n_steps=15, seed=3
            ).bind_engine_pool(pool)
            return solver.solve_detailed(model)

        expected = [
            QhdSolver(
                n_samples=4, grid_points=8, n_steps=15, seed=3
            ).solve_detailed(m)
            for m in models
        ]
        barrier = threading.Barrier(4)

        def hammer(model):
            barrier.wait()  # maximise lease overlap
            return pooled_run(model)

        with ThreadPoolExecutor(max_workers=4) as executor:
            got = list(executor.map(hammer, models))
        for want, have in zip(expected, got):
            np.testing.assert_array_equal(want.samples, have.samples)
            np.testing.assert_array_equal(want.energies, have.energies)


class TestAttachEnginePool:
    def test_attaches_through_detector_tree(self):
        from repro.api import build_detector

        pool = EnginePool()
        detector = build_detector(
            {"detector": "qhd", "solver": "qhd", "seed": 0}
        )
        bound = attach_engine_pool(detector, pool)
        assert bound >= 1
        assert detector.solver.engine_pool is pool
        assert detector._direct.solver.engine_pool is pool

    def test_attaches_portfolio_members(self):
        from repro.api import build_solver

        pool = EnginePool()
        portfolio = build_solver(
            "portfolio",
            {
                "solvers": [
                    {"name": "qhd", "config": {"n_steps": 5, "seed": 0}},
                    {"name": "greedy", "config": {"seed": 0}},
                ]
            },
        )
        assert attach_engine_pool(portfolio, pool) == 1
        qhd_member = next(
            member
            for member in portfolio.solvers
            if member.name == "qhd"
        )
        assert qhd_member.engine_pool is pool

    def test_none_unbinds(self):
        pool = EnginePool()
        solver = QhdSolver(n_steps=5).bind_engine_pool(pool)
        assert solver.engine_pool is pool
        attach_engine_pool(solver, None)
        assert solver.engine_pool is None

    def test_ignores_pool_unaware_components(self):
        from repro.api import build_solver

        assert attach_engine_pool(build_solver("greedy"), EnginePool()) == 0
