"""Quantum Hamiltonian Descent solver for QUBO problems (paper §IV-A).

The production solver (:class:`QhdSolver`) simulates QHD with a mean-field
product-state ansatz — one 1-D wavefunction per QUBO variable, batched over
samples — using only matrix multiplications, then rounds and classically
refines the measured bitstrings.  The evolution runs in the box [0, 1] with
hard walls (Dirichlet sine basis) on :class:`EvolutionEngine`, whose only
throughput knob is ``dtype``.  :mod:`repro.qhd.exact` holds exact (full
tensor-grid) simulators; :class:`ExactQuboQhd` is the oracle the engine is
checked against on tiny instances.
"""

from repro.qhd.engine import EvolutionEngine, EvolutionOutcome
from repro.qhd.pool import EnginePool, attach_engine_pool, engine_key
from repro.qhd.solver import QhdSolver
from repro.qhd.result import QhdDetails, QhdTrace
from repro.qhd.refinement import refine_candidates, round_positions
from repro.qhd.exact import ExactQhd1D, ExactQuboQhd

__all__ = [
    "QhdSolver",
    "EvolutionEngine",
    "EvolutionOutcome",
    "EnginePool",
    "attach_engine_pool",
    "engine_key",
    "QhdDetails",
    "QhdTrace",
    "refine_candidates",
    "round_positions",
    "ExactQhd1D",
    "ExactQuboQhd",
]
