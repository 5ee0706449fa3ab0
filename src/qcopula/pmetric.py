"""Hilbert-Birkhoff projective metric on the PSD cone.

The distance between two PSD matrices with common support is
log(max/min) over the spectrum of B^{-1/2} A B^{-1/2} restricted to the
support; matrices with different supports are infinitely far apart.
``hilbert_distance`` takes one pair of matrices or two stacks of them; a
single pair is computed as a stack of one.
"""

from __future__ import annotations

import math

import numpy as np

from . import matcore
from .errors import NotPSD, QcopulaError, ShapeMismatch, ZeroMatrix

SUPPORT_TOL = 1e-8
ZERO_FNORM_TOL = 1e-14
RANK_TOL = 1e-10  # support: eigenvalues above this fraction of the largest


def _spectra(mats, what: str):
    """The checks and eigendecompositions ``hilbert_distance`` makes of each
    matrix of one side of a call, a stack (S, n, n) or a list of one
    matrix. Returns (out, stack): ``out[k]`` is the error matrix k fails
    on, in the single call's order (the square shape, the
    ``matcore.hermitian_parts`` check, a numerically zero matrix, a
    negative eigenvalue), or (n, row, rank) for a matrix that passes;
    ``stack`` holds the Hermitian parts and eigenpairs (h, w, v) of the
    matrices that reached ``eigh``, or is None if none did, and rank counts
    the eigenvalues above ``RANK_TOL`` of the largest. The Hermitian check
    and ``eigh`` each run once on the stack; the Frobenius norm is taken
    only of the matrices whose largest entry does not already rule out
    zero."""
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        message = f"{what} must be a square matrix, got shape {mats.shape[1:]}"
        return [ShapeMismatch(message) for _ in mats], None
    h, out = matcore.hermitian_parts(mats, what=what)
    # the Frobenius norm is at least the largest entry magnitude: above twice
    # the tolerance, no rounding of the norm brings it down to the tolerance
    nonzero = (matcore.max_abs(h) > 2 * ZERO_FNORM_TOL).tolist()
    idx = []
    for k, (error, surely_nonzero) in enumerate(zip(out, nonzero)):
        if error is not None:
            continue
        if not surely_nonzero and float(np.linalg.norm(h[k])) <= ZERO_FNORM_TOL:
            out[k] = ZeroMatrix(f"{what} is numerically zero")
        else:
            idx.append(k)
    if not idx:
        return out, None
    h = _rows(h, idx)
    with matcore._lapack_errors():
        w, v = matcore._eigh(h)
    n = h.shape[-1]
    ranks = np.count_nonzero(w > RANK_TOL * w[:, -1:], axis=1).tolist()
    lows, highs = w[:, 0].tolist(), w[:, -1].tolist()
    for row, (k, lo, hi, rank) in enumerate(zip(idx, lows, highs, ranks)):
        if lo < -RANK_TOL * max(hi, 0.0) - ZERO_FNORM_TOL:
            out[k] = NotPSD(f"{what} has negative eigenvalue {lo:.3e}")
        else:
            out[k] = (n, row, rank)
    return out, (h, w, v)


def _rows(stack: np.ndarray, rows: list) -> np.ndarray:
    """``stack[rows]``, without a copy when rows are all of it in order."""
    return stack if rows == list(range(len(stack))) else stack[rows]


def _support(v: np.ndarray, rank: int) -> np.ndarray:
    """The eigenvectors of the top ``rank`` eigenvalues of each stacked
    spectrum, as contiguous (S, n, rank) columns."""
    return np.ascontiguousarray(v[..., v.shape[-1] - rank :])


def _same_rank_distances(ha, va, wb, vb, rank: int) -> list:
    """Distances of stacked pairs whose supports both have rank ``rank``,
    from a's Hermitian parts and eigenvectors and b's eigenpairs: inf where
    the supports differ, else log(max/min) over the spectrum of the
    whitened a on b's support."""
    n = ha.shape[-1]
    basis = _support(vb, rank)
    same = np.ones(len(ha), dtype=bool)
    if rank < n:
        ua = _support(va, rank)
        pa = ua @ ua.conj().swapaxes(-1, -2)
        pb = basis @ basis.conj().swapaxes(-1, -2)
        same = ~(np.linalg.norm(pa - pb, 2, axis=(1, 2)) > SUPPORT_TOL)
    a_r = basis.conj().swapaxes(-1, -2) @ ha @ basis
    s = 1.0 / np.sqrt(wb[:, n - rank :])
    whitened = matcore.hermitian_part(a_r * s[:, None, :] * s[:, :, None])
    with matcore._lapack_errors():
        ev = matcore._eigvalsh(whitened)
    # one state's numpy scalar at a time: an array log may round differently
    return [
        float(np.log(w[-1] / w[0])) if ok and w[0] > 0.0 else math.inf
        for ok, w in zip(same.tolist(), ev)
    ]


def _distances(a_mats, b_mats) -> list:
    """The distance of each pair (a_mats[k], b_mats[k]), or the
    ``QcopulaError`` of the first check it fails: a's checks come before
    b's, then the shapes. The Hermitian checks and the eigendecompositions
    run on one stack per side, the whitening on stacks of one support rank;
    the logarithms are taken one pair at a time.
    """
    (a_side, a_stack), (b_side, b_stack) = _spectra(a_mats, "a"), _spectra(b_mats, "b")
    out: list = []
    groups: dict = {}
    for k, (a, b) in enumerate(zip(a_side, b_side)):
        if isinstance(a, QcopulaError) or isinstance(b, QcopulaError):
            out.append(a if isinstance(a, QcopulaError) else b)
        elif a[0] != b[0]:
            out.append(ShapeMismatch(f"shape mismatch: {(a[0], a[0])} vs {(b[0], b[0])}"))
        elif a[2] != b[2]:
            out.append(math.inf)
        else:
            out.append(None)
            groups.setdefault(a[2], []).append((k, a[1], b[1]))
    for rank, members in groups.items():
        ks, rows_a, rows_b = (list(x) for x in zip(*members))
        ha, _, va = (_rows(x, rows_a) for x in a_stack)
        _, wb, vb = (_rows(x, rows_b) for x in b_stack)
        for k, d in zip(ks, _same_rank_distances(ha, va, wb, vb, rank)):
            out[k] = d
    return out


def hilbert_distance(a, b):
    """Projective distance between rays of nonzero PSD matrices.

    Scale invariant: d(cA, B) = d(A, B) for c > 0, and d(A, B) = 0 exactly
    when A and B span the same ray. Returns ``math.inf`` when the supports
    differ (support = span of eigenvectors above ``RANK_TOL`` relative).

    ``a`` and ``b`` may also be stacks, numpy arrays of shapes (S, n, n)
    and (S, n', n'). The result is then a list whose entry k is, bit for
    bit, what the call on the pair (a[k], b[k]) returns or the
    ``QcopulaError`` it raises, so that one bad pair hides no other.

    The eigendecompositions are ``matcore._eigh`` and ``_eigvalsh``, with
    numpy.linalg's bits and errors; only those calls run inside numpy's
    error state ``matcore._lapack_errors``, since the checks before them
    meet NaN entries, which that state would turn into ``LinAlgError``.
    """
    if isinstance(a, np.ndarray) and a.ndim == 3:
        if not (isinstance(b, np.ndarray) and b.ndim == 3 and len(b) == len(a)):
            raise ValueError(f"a stack {a.shape} needs a stack of as many b, got {np.shape(b)}")
        return _distances(a, b)
    (d,) = _distances([a], [b])
    if isinstance(d, QcopulaError):
        raise d
    return d
