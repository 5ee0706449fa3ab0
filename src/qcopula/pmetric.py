"""Hilbert-Birkhoff projective metric on the PSD cone.

The distance between two PSD matrices with common support is
log(max/min) over the spectrum of B^{-1/2} A B^{-1/2} restricted to the
support; matrices with different supports are infinitely far apart.
Also provides Monte-Carlo lower-bound estimators for the projective
diameter and the contraction ratio of a positive map.
"""

from __future__ import annotations

import math

import numpy as np

from . import matcore, states
from .choi import ChoiOperator, apply
from .errors import InfiniteDistance, NotPSD, ShapeMismatch, ZeroMatrix

ProjectiveDistance = float  # finite value or math.inf for mismatched supports

SUPPORT_TOL = 1e-8
ZERO_FNORM_TOL = 1e-14
PAIR_SKIP_TOL = 1e-8
BOUNDARY_WEIGHTS = (1e-2, 1e-4, 1e-6)
RANK_TOL = 1e-10  # support: eigenvalues above this fraction of the largest


def _psd_spectrum(mat, what: str):
    h = matcore.require_hermitian(mat, what=what)
    if float(np.linalg.norm(h)) <= ZERO_FNORM_TOL:
        raise ZeroMatrix(f"{what} is numerically zero")
    w, v = np.linalg.eigh(h)
    if w[0] < -RANK_TOL * max(float(w[-1]), 0.0) - ZERO_FNORM_TOL:
        raise NotPSD(f"{what} has negative eigenvalue {w[0]:.3e}")
    return h, w, v


def hilbert_distance(a, b) -> float:
    """Projective distance between rays of nonzero PSD matrices.

    Scale invariant: d(cA, B) = d(A, B) for c > 0, and d(A, B) = 0 exactly
    when A and B span the same ray. Returns ``math.inf`` when the supports
    differ (support = span of eigenvectors above ``RANK_TOL`` relative).
    """
    ha, wa, va = _psd_spectrum(a, "a")
    hb, wb, vb = _psd_spectrum(b, "b")
    if ha.shape != hb.shape:
        raise ShapeMismatch(f"shape mismatch: {ha.shape} vs {hb.shape}")
    keep_a = wa > RANK_TOL * wa[-1]
    keep_b = wb > RANK_TOL * wb[-1]
    ra, rb = int(np.count_nonzero(keep_a)), int(np.count_nonzero(keep_b))
    if ra != rb:
        return math.inf
    full = ra == ha.shape[0]
    if not full:
        pa = va[:, keep_a] @ va[:, keep_a].conj().T
        pb = vb[:, keep_b] @ vb[:, keep_b].conj().T
        if float(np.linalg.norm(pa - pb, 2)) > SUPPORT_TOL:
            return math.inf
    basis = vb[:, keep_b]
    a_r = basis.conj().T @ ha @ basis
    s = 1.0 / np.sqrt(wb[keep_b])
    mid = matcore.hermitian_part(a_r * s[None, :] * s[:, None])
    w = np.linalg.eigvalsh(mid)
    if w[0] <= 0.0:
        return math.inf
    return float(np.log(w[-1] / w[0]))


def _sample_state_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random state, half the time pushed near the cone boundary by mixing a
    rank-deficient projector with a small full-rank part (the supremum is
    approached near the boundary; pure interior sampling underestimates)."""
    base = states.wishart_state_matrix(dim, rng)
    if dim > 1 and rng.random() < 0.5:
        r = int(rng.integers(1, dim))
        u = states.random_haar_unitary(dim, rng)
        proj = u[:, :r] @ u[:, :r].conj().T
        w = BOUNDARY_WEIGHTS[int(rng.integers(len(BOUNDARY_WEIGHTS)))]
        return matcore.hermitian_part((1.0 - w) * proj / r + w * base)
    return base


def estimate_diameter(phi: ChoiOperator, samples: int, seed) -> float:
    """Monte-Carlo lower bound for the projective diameter of ``phi``:
    max distance between images of sampled state pairs."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    best = 0.0
    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        out_a = matcore.hermitian_part(apply(phi, _sample_state_matrix(rng, phi.dim_in)))
        out_b = matcore.hermitian_part(apply(phi, _sample_state_matrix(rng, phi.dim_in)))
        d = hilbert_distance(out_a, out_b)
        if math.isinf(d):
            raise InfiniteDistance(
                "image pair with mismatched supports; the map is not strictly positive"
            )
        best = max(best, d)
    return best


def estimate_contraction(phi: ChoiOperator, samples: int, seed) -> float:
    """Monte-Carlo lower bound for the Birkhoff contraction ratio of ``phi``:
    max of d(Phi A, Phi B)/d(A, B) over sampled pairs, skipping pairs closer
    than 1e-8 to avoid 0/0 noise."""
    if samples < 2:
        raise ValueError("samples must be >= 2")
    best = 0.0
    for k in range(samples):
        rng = np.random.default_rng((seed, k))
        x = _sample_state_matrix(rng, phi.dim_in)
        y = _sample_state_matrix(rng, phi.dim_in)
        d_in = hilbert_distance(x, y)
        if not math.isfinite(d_in) or d_in < PAIR_SKIP_TOL:
            continue
        d_out = hilbert_distance(
            matcore.hermitian_part(apply(phi, x)),
            matcore.hermitian_part(apply(phi, y)),
        )
        if math.isinf(d_out):
            raise InfiniteDistance(
                "image pair with mismatched supports; the map is not strictly positive"
            )
        best = max(best, d_out / d_in)
    return best
