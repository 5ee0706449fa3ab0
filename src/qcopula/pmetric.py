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
    matrix. Returns (out, stacks): ``out[k]`` is the error matrix k fails
    on, in the single call's order (``matcore.require_hermitian``, a
    numerically zero matrix, a negative eigenvalue), or (n, row, rank) for
    a matrix that passes; ``stacks[n]`` holds the Hermitian parts and
    eigenpairs (h, w, v) of the size-n matrices that reached ``eigh``, and
    rank counts the eigenvalues above ``RANK_TOL`` of the largest. The
    Hermitian check and the Frobenius norm are taken matrix by matrix."""
    hs: list = []
    for mat in mats:
        try:
            hs.append(matcore.require_hermitian(mat, what=what))
        except QcopulaError as exc:
            hs.append(exc)
    out = list(hs)
    sizes: dict = {}
    for k, h in enumerate(hs):
        if isinstance(h, QcopulaError):
            continue
        if float(np.linalg.norm(h)) <= ZERO_FNORM_TOL:
            out[k] = ZeroMatrix(f"{what} is numerically zero")
        else:
            sizes.setdefault(h.shape[0], []).append(k)
    stacks = {}
    for n, idx in sizes.items():
        h = np.stack([hs[k] for k in idx])
        w, v = np.linalg.eigh(h)
        stacks[n] = (h, w, v)
        ranks = np.count_nonzero(w > RANK_TOL * w[:, -1:], axis=1).tolist()
        lows, highs = w[:, 0].tolist(), w[:, -1].tolist()
        for row, (k, lo, hi, rank) in enumerate(zip(idx, lows, highs, ranks)):
            if lo < -RANK_TOL * max(hi, 0.0) - ZERO_FNORM_TOL:
                out[k] = NotPSD(f"{what} has negative eigenvalue {lo:.3e}")
            else:
                out[k] = (n, row, rank)
    return out, stacks


def _rows(stack: np.ndarray, rows: list) -> np.ndarray:
    """``stack[rows]``, without a copy when rows are all of it in order."""
    return stack if rows == list(range(len(stack))) else stack[rows]


def _support(v: np.ndarray, rank: int) -> np.ndarray:
    """The eigenvectors of the top ``rank`` eigenvalues of each stacked
    spectrum, as contiguous (S, n, rank) columns."""
    return np.ascontiguousarray(v[..., v.shape[-1] - rank :])


def _same_rank_distances(ha, va, wb, vb, rank: int) -> list:
    """Distances of stacked pairs of one size whose supports both have rank
    ``rank``, from a's Hermitian parts and eigenvectors and b's eigenpairs:
    inf where the supports differ, else log(max/min) over the spectrum of
    the whitened a on b's support."""
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
    ev = np.linalg.eigvalsh(matcore.hermitian_part(a_r * s[:, None, :] * s[:, :, None]))
    # one state's numpy scalar at a time: an array log may round differently
    return [
        float(np.log(w[-1] / w[0])) if ok and w[0] > 0.0 else math.inf
        for ok, w in zip(same.tolist(), ev)
    ]


def _distances(a_mats, b_mats) -> list:
    """The distance of each pair (a_mats[k], b_mats[k]), or the
    ``QcopulaError`` of the first check it fails: a's checks come before
    b's, then the shapes. The eigendecompositions run on stacks of one
    shape, the whitening on stacks of one shape and support rank; the
    checks, the Frobenius norms and the logarithms are taken one matrix at
    a time.
    """
    (a_side, a_stacks), (b_side, b_stacks) = _spectra(a_mats, "a"), _spectra(b_mats, "b")
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
            groups.setdefault((a[0], a[2]), []).append((k, a[1], b[1]))
    for (n, rank), members in groups.items():
        ks, rows_a, rows_b = (list(x) for x in zip(*members))
        ha, _, va = (_rows(x, rows_a) for x in a_stacks[n])
        _, wb, vb = (_rows(x, rows_b) for x in b_stacks[n])
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
    """
    if isinstance(a, np.ndarray) and a.ndim == 3:
        if not (isinstance(b, np.ndarray) and b.ndim == 3 and len(b) == len(a)):
            raise ValueError(f"a stack {a.shape} needs a stack of as many b, got {np.shape(b)}")
        return _distances(a, b)
    (d,) = _distances([a], [b])
    if isinstance(d, QcopulaError):
        raise d
    return d
