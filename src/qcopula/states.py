"""Bipartite density matrices: the core state type, marginals, random
sampling, precopula checks and the PPT entanglement probe.

Index convention used everywhere: a state on the (n, m) bipartite space is
an (n*m) x (n*m) matrix whose row index (i, k) flattens to i*m + k, i.e.
the first tensor factor has dimension n and varies slowest.
"""

from __future__ import annotations

import functools
from dataclasses import InitVar, dataclass

import numpy as np

from . import jsonio, matcore
from .errors import DegenerateSample, InvalidInput, NotPSD

STATE_TRACE_ATOL = 1e-10  # DensityMatrix's tolerance: Hermitian (relative), trace and PSD floor
JSON_ATOL = 1e-8
FULL_RANK_FLOOR = 1e-12
RESAMPLE_ATTEMPTS = 10

SEPARABLE = "separable"
ENTANGLED = "entangled"
INCONCLUSIVE = "inconclusive"
PPT_EIG_THRESHOLD = -1e-10
PPT_EXACT_DIMS = ((2, 2), (2, 3), (3, 2))


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, PSD, trace-one matrix with bipartite dimension metadata.

    ``mat`` is the Hermitian part of the input as a fresh read-only array,
    so it is exactly Hermitian and ``eig_range``, its smallest and largest
    eigenvalue, stays valid for the object's lifetime. The PSD check is an
    ``eigvalsh`` floor and records ``eig_range``.

    ``_cholesky=True`` is for the states ``copula_of`` builds from a state
    already checked, by a congruence or a mixture with the identity. These
    are positive definite by construction, and a Cholesky factorization of
    the Hermitian part proves it. Only where that fails does the
    ``eigvalsh`` floor decide, so the verdict is the same on either route;
    ``eig_range`` is then computed on first read.
    """

    mat: np.ndarray
    dim_a: int
    dim_b: int
    _cholesky: InitVar[bool] = False

    def __post_init__(self, _cholesky):
        n, m = int(self.dim_a), int(self.dim_b)
        if n < 1 or m < 1:
            raise InvalidInput("dims: factor dimensions must be positive integers")
        mat = np.asarray(self.mat, dtype=np.complex128)
        h, w, _ = _check_state(mat, n, m, STATE_TRACE_ATOL, "density matrix", cholesky=_cholesky)
        if w is not None:
            object.__setattr__(self, "eig_range", (float(w[0]), float(w[-1])))
        h.flags.writeable = False
        object.__setattr__(self, "mat", h)
        object.__setattr__(self, "dim_a", n)
        object.__setattr__(self, "dim_b", m)

    @functools.cached_property
    def eig_range(self) -> tuple[float, float]:
        """Smallest and largest eigenvalue of ``mat``."""
        with matcore._lapack_errors():
            w = matcore._eigvalsh(self.mat)
        return float(w[0]), float(w[-1])

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b

    def tensor_view(self) -> np.ndarray:
        return self.mat.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)


def _cholesky_succeeds(h: np.ndarray) -> bool:
    """True iff ``h`` has a Cholesky factorization, which proves it
    positive definite up to rounding of order d * eps * ||h||."""
    try:
        matcore._cholesky(h)
    except np.linalg.LinAlgError:
        return False
    return True


def _check_state(
    mat: np.ndarray, n: int, m: int, tol: float, what: str, scale_floor: float = 0.0,
    cholesky: bool = False, vectors: bool = False,
):
    """The checks of both state intakes, in order: ``mat`` is (nm, nm),
    Hermitian within ``tol * max(scale, scale_floor)`` (scale its largest
    entry magnitude), of trace 1 within ``tol`` and without an eigenvalue
    below ``-tol``. ``what`` names the matrix in the Hermitian messages.

    Returns (h, w, v): h the Hermitian part, w its ascending eigenvalues and
    v their eigenvectors from ``eigh`` when ``vectors``, else None. With
    ``cholesky`` a Cholesky factorization of h that succeeds proves it
    positive definite in place of the floor, and w is then None too."""
    d = n * m
    if mat.shape != (d, d):
        raise InvalidInput(
            f"dims: matrix has shape {mat.shape}, expected ({d}, {d}) for dims ({n}, {m})"
        )
    h = matcore.require_hermitian(mat, tol, what, scale_floor)
    tr = complex(np.trace(mat))
    if abs(tr - 1.0) > tol:
        raise InvalidInput(f"trace: expected 1 within {tol:g}, got {tr.real:.12g}")
    with matcore._lapack_errors():
        if cholesky and _cholesky_succeeds(h):
            return h, None, None
        w, v = matcore._eigh(h) if vectors else (matcore._eigvalsh(h), None)
    if w[0] < -tol:
        raise NotPSD(f"PSD: minimum eigenvalue {float(w[0]):.3e} below {-tol:g}")
    return h, w, v


@dataclass(frozen=True)
class SeparabilityVerdict:
    """PPT probe outcome; exact only for dims (2,2), (2,3) and (3,2)."""

    tag: str
    min_pt_eigenvalue: float


def partial_trace_first(rho: DensityMatrix) -> np.ndarray:
    """Trace out the first factor: (Tr1 rho)[k,l] = sum_i rho[(i,k),(i,l)]."""
    return np.einsum("ikil->kl", rho.tensor_view())


def partial_trace_second(rho: DensityMatrix) -> np.ndarray:
    """Trace out the second factor: (Tr2 rho)[i,j] = sum_k rho[(i,k),(j,k)]."""
    return np.einsum("ikjk->ij", rho.tensor_view())


def marginal_residuals(rho: DensityMatrix) -> tuple[float, float]:
    """Frobenius distances of the two marginals from maximal mixedness."""
    n, m = rho.dim_a, rho.dim_b
    r1 = float(np.linalg.norm(partial_trace_first(rho) - np.eye(m) / m))
    r2 = float(np.linalg.norm(partial_trace_second(rho) - np.eye(n) / n))
    return r1, r2


def is_precopula(rho: DensityMatrix, tol: float = 1e-10) -> bool:
    """True iff both marginals are maximally mixed within ``tol``."""
    r1, r2 = marginal_residuals(rho)
    return r1 <= tol and r2 <= tol


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose on the second factor: [(i,k),(j,l)] -> [(i,l),(j,k)]."""
    t = rho.tensor_view().transpose(0, 3, 2, 1)
    return np.ascontiguousarray(t).reshape(rho.dim, rho.dim)


def ppt_verdict(rho: DensityMatrix) -> SeparabilityVerdict:
    """Peres-Horodecki test on the partial transpose of the second factor."""
    with matcore._lapack_errors():
        w = matcore._eigvalsh(partial_transpose(rho))
    lo = float(w[0])
    if lo < PPT_EIG_THRESHOLD:
        tag = ENTANGLED
    elif (rho.dim_a, rho.dim_b) in PPT_EXACT_DIMS:
        tag = SEPARABLE
    else:
        tag = INCONCLUSIVE
    return SeparabilityVerdict(tag, lo)


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _gram_state(g: np.ndarray) -> np.ndarray:
    """GG*/Tr(GG*) of one complex matrix G or of each in a stack."""
    w = matcore.hermitian_part(g @ g.conj().swapaxes(-1, -2))
    return w / np.trace(w, axis1=-2, axis2=-1).real[..., None, None]


def wishart_state_matrix(dim: int, seed) -> np.ndarray:
    """Raw trace-one PSD matrix GG*/Tr(GG*) from a complex Gaussian G.

    ``seed`` may be an integer or an existing ``numpy.random.Generator``.
    """
    rng = np.random.default_rng(seed)
    return _gram_state(_ginibre(rng, dim, dim))


def random_full_rank_state(n: int, m: int, seed) -> DensityMatrix:
    """Full-rank random state on dims (n, m); deterministic given seed.

    Resamples up to ten times if the smallest eigenvalue falls at or
    below 1e-12 (probability-zero event for the Gaussian ensemble).
    """
    rng = np.random.default_rng(seed)
    for _ in range(RESAMPLE_ATTEMPTS):
        rho = DensityMatrix(wishart_state_matrix(n * m, rng), n, m)
        if rho.eig_range[0] > FULL_RANK_FLOOR:
            return rho
    raise DegenerateSample(
        f"could not draw a full-rank ({n}, {m}) state in {RESAMPLE_ATTEMPTS} attempts"
    )


def random_separable_state(n: int, m: int, terms: int, seed) -> DensityMatrix:
    """Random convex combination of ``terms`` full-rank product states.

    Separable by construction and positive definite for any terms >= 1
    since every product factor is full rank.

    Each attempt draws Dirichlet weights, then the Gaussians of all its
    terms in one call, in the order ``wishart_state_matrix(n, rng)`` and
    ``wishart_state_matrix(m, rng)`` would draw them term by term: the real
    and then the imaginary part of term k's n x n factor, the same for its
    m x m factor, then term k + 1. The state is bit for bit the sum, in
    term order, of the weighted Kronecker products of those factors, and
    a ``Generator`` passed as ``seed`` is left where the term-by-term draws
    would leave it.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(RESAMPLE_ATTEMPTS):
        weights = rng.dirichlet(np.ones(terms))
        z = rng.standard_normal((terms, 2 * (n * n + m * m)))
        ar, ai, br, bi = np.split(z, np.cumsum([n * n, n * n, m * m]), axis=1)
        a = _gram_state((ar + 1j * ai).reshape(terms, n, n))
        b = _gram_state((br + 1j * bi).reshape(terms, m, m))
        # the products np.kron(a, b) takes, without its overhead
        prods = weights[:, None, None] * (
            a[:, :, None, :, None] * b[:, None, :, None, :]
        ).reshape(terms, n * m, n * m)
        # added one by one: a sum over the terms axis may add pairwise
        acc = np.zeros((n * m, n * m), dtype=np.complex128)
        for term in prods:
            acc += term
        acc = matcore.hermitian_part(acc)
        acc /= np.trace(acc).real
        rho = DensityMatrix(acc, n, m)
        if rho.eig_range[0] > FULL_RANK_FLOOR:
            return rho
    raise DegenerateSample(
        f"could not draw a full-rank separable ({n}, {m}) state in {RESAMPLE_ATTEMPTS} attempts"
    )


def random_haar_unitary(dim: int, seed) -> np.ndarray:
    """Haar-random unitary via QR of a Ginibre sample with phase-fixed
    diagonal."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(_ginibre(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def state_to_dict(rho: DensityMatrix) -> dict:
    """Density-matrix JSON schema: {"dims": [n, m], "matrix": [[re, im] ...]}."""
    return {
        "dims": [rho.dim_a, rho.dim_b],
        "matrix": jsonio.complex_matrix_to_pairs(rho.mat),
    }


def state_from_dict(obj) -> DensityMatrix:
    """Parse and validate the density-matrix JSON schema.

    Files are checked at the looser 1e-8 tolerance (they may carry
    truncated decimals); accepted input is then symmetrized, clipped and
    renormalized so the strict internal invariants hold.
    """
    if not isinstance(obj, dict):
        raise InvalidInput("document: expected a JSON object")
    dims = obj.get("dims")
    if (
        not isinstance(dims, list)
        or len(dims) != 2
        or not all(isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in dims)
    ):
        raise InvalidInput('dims: expected "dims": [n, m] with positive integers')
    n, m = int(dims[0]), int(dims[1])
    mat = jsonio.pairs_to_complex(obj.get("matrix"), what="matrix")
    _, w, v = _check_state(mat, n, m, JSON_ATOL, "matrix", scale_floor=1.0, vectors=True)
    # Repair file round-off: clip tiny negative eigenvalues, renormalize.
    w = np.clip(w, 0.0, None)
    h = (v * w) @ v.conj().T
    h = matcore.hermitian_part(h) / np.trace(h).real
    return DensityMatrix(h, n, m)
