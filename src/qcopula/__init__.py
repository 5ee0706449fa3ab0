"""Quantum copulas of bipartite states.

Every full-rank bipartite density matrix is connected, by an invertible
local transformation A o B, to an essentially unique state with maximally
mixed marginals. This package computes that representative through a
Sinkhorn-type fixed-point iteration that contracts the Hilbert projective
metric on the positive cone, and ships the classical doubly-stochastic
scaling as the commutative counterpart.
"""

from . import choi, errors, matcore, pmetric
from .copula import (
    CopulaResult,
    FixedPointReport,
    ScalerPair,
    SolverConfig,
    connection_matrices,
    copula_invariants,
    copula_of,
    extract_scalers,
    fixed_point_iterate,
    verify_connection,
)
from .sinkhorn import ScalingPair, sinkhorn_scale
from .states import (
    ENTANGLED,
    INCONCLUSIVE,
    SEPARABLE,
    DensityMatrix,
    SeparabilityVerdict,
    is_precopula,
    marginal_residuals,
    partial_trace_first,
    partial_trace_second,
    partial_transpose,
    ppt_verdict,
    random_full_rank_state,
    random_haar_unitary,
    random_separable_state,
    state_from_dict,
    state_to_dict,
    wishart_state_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CopulaResult",
    "DensityMatrix",
    "ENTANGLED",
    "FixedPointReport",
    "INCONCLUSIVE",
    "SEPARABLE",
    "ScalerPair",
    "ScalingPair",
    "SeparabilityVerdict",
    "SolverConfig",
    "choi",
    "connection_matrices",
    "copula_invariants",
    "copula_of",
    "errors",
    "extract_scalers",
    "fixed_point_iterate",
    "is_precopula",
    "marginal_residuals",
    "matcore",
    "partial_trace_first",
    "partial_trace_second",
    "partial_transpose",
    "pmetric",
    "ppt_verdict",
    "random_full_rank_state",
    "random_haar_unitary",
    "random_separable_state",
    "sinkhorn_scale",
    "state_from_dict",
    "state_to_dict",
    "verify_connection",
    "wishart_state_matrix",
]
