"""QUBO substrate: model containers, community-detection builders, decoding.

Two storage backends share the :class:`BaseQubo` interface:
:class:`QuboModel` (dense) and :class:`SparseQuboModel` (CSR couplings
plus low-rank factors).  :func:`build_community_qubo` selects between
them automatically — dense when ``n * k <= DENSE_VARIABLE_LIMIT`` (2048)
or the estimated stored-coefficient density exceeds
``DENSE_DENSITY_LIMIT`` (25%), sparse otherwise; pass
``backend="dense"`` / ``backend="sparse"`` to force either (see
:func:`select_backend`).  The sparse path never allocates an
O((n·k)^2) array.
"""

from repro.qubo.model import BaseQubo, QuboModel
from repro.qubo.sparse import SparseQuboModel
from repro.qubo.delta import BatchFlipDeltaState, FlipDeltaState
from repro.qubo.builders import (
    DENSE_DENSITY_LIMIT,
    DENSE_VARIABLE_LIMIT,
    CommunityQubo,
    VariableMap,
    build_community_qubo,
    default_penalties,
    select_backend,
)
from repro.qubo.decode import (
    assignment_violations,
    decode_assignment,
    labels_to_one_hot,
)
from repro.qubo.random_instances import (
    PortfolioGenerator,
    PortfolioSpec,
    QuboInstance,
    random_qubo,
)
from repro.qubo.streaming import CommunityQuboPatcher
from repro.qubo.analysis import qubo_density


def model_from_arrays(arrays: dict) -> BaseQubo:
    """Rebuild whichever QUBO backend produced an array bundle.

    Dispatches on the bundle's ``"kind"`` tag to
    :meth:`QuboModel.from_arrays` or
    :meth:`SparseQuboModel.from_arrays` — the receiving half of the
    process-pool wire format (see ``Session(executor="process")``).
    """
    from repro.exceptions import QuboError

    kind = arrays.get("kind") if isinstance(arrays, dict) else None
    if kind == "dense":
        return QuboModel.from_arrays(arrays)
    if kind == "sparse":
        return SparseQuboModel.from_arrays(arrays)
    raise QuboError(
        f"unknown model array bundle kind {kind!r}; "
        "expected 'dense' or 'sparse'"
    )

__all__ = [
    "BaseQubo",
    "QuboModel",
    "SparseQuboModel",
    "model_from_arrays",
    "FlipDeltaState",
    "BatchFlipDeltaState",
    "CommunityQubo",
    "CommunityQuboPatcher",
    "VariableMap",
    "build_community_qubo",
    "default_penalties",
    "select_backend",
    "DENSE_VARIABLE_LIMIT",
    "DENSE_DENSITY_LIMIT",
    "assignment_violations",
    "decode_assignment",
    "labels_to_one_hot",
    "PortfolioGenerator",
    "PortfolioSpec",
    "QuboInstance",
    "random_qubo",
    "qubo_density",
]
