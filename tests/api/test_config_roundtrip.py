"""Config round-trips: spec == create(name, **spec).to_config() everywhere."""

import json

import pytest

from repro.api import DETECTORS, SOLVERS
from repro.community.multilevel import MultilevelConfig

#: Non-default sample config per solver name (portfolio has no default).
SOLVER_SAMPLES = {
    "qhd": {"n_samples": 4, "n_steps": 10, "seed": 3},
    "branch-and-bound": {"time_limit": 2.0, "max_nodes": 100},
    "simulated-annealing": {"n_sweeps": 25, "seed": 1},
    "tabu": {"n_iterations": 50, "tenure": 5, "seed": 2},
    "greedy": {"n_restarts": 3, "seed": 4},
    "brute-force": {"max_variables": 12},
    "portfolio": {
        "solvers": [
            {"name": "greedy", "config": {"n_restarts": 2}},
            {"name": "tabu", "config": {"n_iterations": 20}},
        ]
    },
}

DETECTOR_SAMPLES = {
    "qhd": {"direct_threshold": 500, "qhd_samples": 4, "seed": 7},
    "direct": {"refine_passes": 2, "backend": "dense"},
    "multilevel": {"config": {"threshold": 40, "refine_passes": 3}},
    "adaptive": {"max_rounds": 2, "solver": "greedy"},
}


@pytest.mark.parametrize("name", sorted(SOLVER_SAMPLES))
def test_solver_config_roundtrip(name):
    assert name in SOLVERS.available()
    instance = SOLVERS.create(name, **SOLVER_SAMPLES[name])
    spec = instance.to_config()
    assert SOLVERS.create(name, **spec).to_config() == spec


@pytest.mark.parametrize("name", sorted(DETECTOR_SAMPLES))
def test_detector_config_roundtrip(name):
    assert name in DETECTORS.available()
    instance = DETECTORS.create(name, **DETECTOR_SAMPLES[name])
    spec = instance.to_config()
    assert DETECTORS.create(name, **spec).to_config() == spec


def test_every_registered_name_has_a_sample():
    # Adding a solver/detector without extending these tables (and thus
    # the round-trip guarantee) should fail loudly.
    assert set(SOLVERS.available()) == set(SOLVER_SAMPLES)
    assert set(DETECTORS.available()) == set(DETECTOR_SAMPLES)


@pytest.mark.parametrize("name", sorted(SOLVER_SAMPLES))
def test_solver_config_survives_json(name):
    spec = SOLVERS.create(name, **SOLVER_SAMPLES[name]).to_config()
    decoded = json.loads(json.dumps(spec))
    assert SOLVERS.create(name, **decoded).to_config() == spec


def test_default_time_limit_serialises_to_strict_json():
    # Solvers default to time_limit=inf ("no limit"); Infinity is not
    # valid JSON, so to_config lowers it to None and the constructor
    # reads None back as no limit.
    spec = SOLVERS.create("greedy").to_config()
    assert spec["time_limit"] is None
    json.dumps(spec, allow_nan=False)
    assert SOLVERS.create("greedy", **spec).time_limit == float("inf")


def test_multilevel_config_roundtrip():
    config = MultilevelConfig(threshold=33, alpha=0.7, refine_passes=2)
    assert MultilevelConfig.from_config(config.to_config()) == config


def test_multilevel_config_rejects_unknown_keys():
    from repro.api import ConfigError

    with pytest.raises(ConfigError, match="unknown config keys"):
        MultilevelConfig.from_config({"threshold": 10, "gamma": 1.0})


@pytest.mark.parametrize("knob", ["boundary", "n_workers"])
def test_detect_rejects_removed_qhd_knobs(knob):
    from repro import api
    from repro.api import ConfigError
    from repro.graphs.generators import ring_of_cliques

    graph, _ = ring_of_cliques(3, 4)
    value = {"boundary": "periodic", "n_workers": 2}[knob]
    with pytest.raises(ConfigError, match="known keys"):
        api.detect(
            graph,
            {
                "solver": "qhd",
                "solver_config": {knob: value},
                "n_communities": 3,
                "seed": 0,
            },
        )


def test_detector_coerces_nested_solver_spec():
    detector = DETECTORS.create(
        "qhd",
        solver={"name": "simulated-annealing", "config": {"n_sweeps": 11}},
    )
    assert detector.solver.n_sweeps == 11
    spec = detector.to_config()
    # The live solver lowers back to a name+config spec dict (with all
    # defaults materialised), keeping detector configs JSON-friendly.
    assert spec["solver"]["name"] == "simulated-annealing"
    assert spec["solver"]["config"]["n_sweeps"] == 11


def test_detector_coerces_multilevel_config_dict():
    detector = DETECTORS.create(
        "multilevel", config={"threshold": 41, "refine_passes": 2}
    )
    assert detector.config == MultilevelConfig(
        threshold=41, refine_passes=2
    )
