"""Classical Sinkhorn scaling to doubly stochastic form.

The commutative counterpart of the quantum pipeline: for a strictly
positive square matrix A there are positive diagonal scalings D1, D2 with
D1 A D2 doubly stochastic, unique up to (c D1, D2 / c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NonPositiveEntry, NotConverged

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000


@dataclass
class ScalingPair:
    """Diagonal scalings and the resulting doubly stochastic matrix."""

    d1: np.ndarray
    d2: np.ndarray
    scaled: np.ndarray
    iterations: int
    max_deviation: float


def _deviation(s: np.ndarray) -> float:
    return float(
        max(np.max(np.abs(s.sum(axis=1) - 1.0)), np.max(np.abs(s.sum(axis=0) - 1.0)))
    )


def sinkhorn_scale(
    a,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    d2_init=None,
) -> ScalingPair:
    """Alternating row/column normalization until every row and column sum
    is within ``tol`` of 1.

    The returned pair is gauge-fixed to d1[0] = 1. ``d2_init`` selects the
    starting column scaling (all ones by default); any positive start
    converges to the same pair modulo the scalar gauge. Sums that overflow
    to a non-finite deviation raise ``NotConverged``, as a cap reached does.
    """
    mat = np.asarray(a, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"matrix must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise InvalidInput("matrix entries must be finite")
    if np.any(mat <= 0.0):
        raise NonPositiveEntry("matrix must have strictly positive entries")
    if not (np.isfinite(tol) and tol > 0.0):
        raise InvalidInput(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise InvalidInput(f"max_iter must be at least 1, got {max_iter!r}")
    n = mat.shape[0]
    if d2_init is None:
        d2 = np.ones(n)
    else:
        d2 = np.asarray(d2_init, dtype=np.float64).copy()
        if d2.shape != (n,) or np.any(d2 <= 0.0) or not np.all(np.isfinite(d2)):
            raise InvalidInput("d2_init must be a positive vector of matching length")
    d1 = np.ones(n)

    def scaled() -> np.ndarray:
        return d1[:, None] * mat * d2[None, :]

    iterations = 0
    # an overflow shows as a non-finite deviation, which ends the run
    with np.errstate(all="ignore"):
        dev = _deviation(scaled())
        while not dev <= tol:
            if not math.isfinite(dev):
                raise NotConverged(
                    f"row/column sums are not finite after {iterations} iterations"
                )
            if iterations >= max_iter:
                raise NotConverged(
                    f"row/column sums deviate by {dev:.3e} after {max_iter} iterations"
                )
            d1 = 1.0 / (mat @ d2)
            d2 = 1.0 / (d1 @ mat)
            iterations += 1
            dev = _deviation(scaled())
    gauge = d1[0]
    d1 = d1 / gauge
    d2 = d2 * gauge
    return ScalingPair(d1, d2, scaled(), iterations, dev)


def verify_uniqueness(a, p1: ScalingPair, p2: ScalingPair, tol: float = 1e-10) -> bool:
    """True iff the two pairs differ only by the scalar gauge (c d1, d2/c),
    with c estimated from the first components and checked on all."""
    mat = np.asarray(a, dtype=np.float64)
    n = mat.shape[0]
    if p1.d1.shape != (n,) or p2.d1.shape != (n,):
        return False
    c = p2.d1[0] / p1.d1[0]
    if not np.isfinite(c) or c <= 0.0:
        return False
    err1 = float(np.max(np.abs(p2.d1 - c * p1.d1)) / np.max(np.abs(p2.d1)))
    err2 = float(np.max(np.abs(p2.d2 - p1.d2 / c)) / np.max(np.abs(p2.d2)))
    return err1 <= tol and err2 <= tol
