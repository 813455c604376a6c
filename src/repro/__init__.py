"""Scalable community detection using Quantum Hamiltonian Descent.

Reproduction of *"Scalable Community Detection Using Quantum Hamiltonian
Descent and QUBO Formulation"* (DAC 2025, arXiv:2411.14696).

The supported entry point is the :mod:`repro.api` facade: one
JSON-serialisable spec dict names the detector, the solver and their
configs, and the facade builds everything through the plugin registries
and returns a structured, serialisable run artifact::

    import repro.api as api
    from repro.graphs import planted_partition_graph

    graph, truth = planted_partition_graph(4, 30, 0.3, 0.02, seed=7)
    spec = {
        "detector": "qhd",                      # api.DETECTORS name
        "solver": "simulated-annealing",        # api.SOLVERS name
        "solver_config": {"n_sweeps": 100},
        "n_communities": 4,
        "seed": 7,
    }
    artifact = api.detect(graph, spec)          # one graph
    artifacts = api.detect_batch(                # many graphs, thread pool
        [graph] * 8, spec, max_workers=4)
    print(artifact.result.modularity, artifact.to_json())

The same spec file drives the CLI (``repro detect --spec spec.json``);
``repro --list-solvers`` enumerates both registries.  The classic
object-oriented surface (below) remains available for fine-grained
control and is what the registries construct under the hood.

Packages
--------
``repro.api``
    The unified facade: solver/detector registries, config round-trips,
    RunSpec/RunArtifact, single and batch spec execution.
``repro.graphs``
    Graph substrate: CSR graphs, generators, IO, coarsening.
``repro.qubo``
    QUBO models and the Algorithm 1 community-detection formulation.
``repro.hamiltonian``
    Dirichlet grids, schedules and the sine-basis split-operator
    propagator for QHD.
``repro.qhd``
    The Quantum Hamiltonian Descent solver (plus the exact tensor-grid
    simulator the tests use as its oracle).
``repro.solvers``
    Classical QUBO solvers, including the branch & bound GUROBI substitute.
``repro.community``
    Modularity, direct/multilevel detection pipelines and baselines.
``repro.datasets``
    Synthetic substitutes for the paper's benchmark networks.
``repro.experiments``
    Runners regenerating every table and figure of the evaluation.
"""

from repro._version import __version__
from repro.community.detector import QhdCommunityDetector
from repro.community.result import CommunityResult
from repro.graphs.graph import Graph
from repro.qhd.solver import QhdSolver
from repro.qubo.model import QuboModel

__all__ = [
    "__version__",
    "Graph",
    "QuboModel",
    "QhdSolver",
    "QhdCommunityDetector",
    "CommunityResult",
]
