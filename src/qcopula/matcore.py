"""Dense complex-matrix kernel used by every other module.

All tolerances are relative to the largest entry magnitude of the input
unless stated otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonFinite, NotHermitian, ShapeMismatch

HERMITIAN_RTOL = 1e-10


def as_cmatrix(a, dim: int, what: str) -> np.ndarray:
    """The one matrix intake: ``a`` as a finite, read-only (dim, dim)
    complex128 array the caller may keep. A read-only complex128 array that
    owns its data, such as a checked state's matrix, is returned as it is;
    anything else is copied."""
    owned = type(a) is np.ndarray and a.flags.owndata and not a.flags.writeable
    m = a if owned and a.dtype == np.complex128 else np.array(a, dtype=np.complex128)
    m.flags.writeable = False
    if m.shape != (dim, dim):
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected ({dim}, {dim})")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def max_abs(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2, of one matrix or of each in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitian_defect(a: np.ndarray) -> float:
    """Largest entry of |a - a*|; zero exactly for Hermitian input."""
    return max_abs(a - a.conj().T)


def require_hermitian(
    a, rtol: float = HERMITIAN_RTOL, what: str = "matrix", scale_floor: float = 0.0
) -> np.ndarray:
    """Validate that ``a`` is a finite square matrix, Hermitian within
    ``rtol * max(scale, scale_floor)`` where scale is its largest entry
    magnitude, and return its Hermitian part as a fresh array.

    ``a`` itself is neither copied nor modified, so callers that keep the
    input as given can validate it without a second copy.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    scale = max(max_abs(m), scale_floor)
    # NaN or Inf anywhere makes the largest magnitude non-finite.
    if not math.isfinite(scale):
        raise NonFinite(f"{what} contains NaN or Inf entries")
    defect = hermitian_defect(m)
    if defect > rtol * scale:
        raise NotHermitian(
            f"{what} is not Hermitian within {rtol:g} relative "
            f"(defect {defect:.3e}, scale {scale:.3e})"
        )
    return hermitian_part(m)


def local_congruence(mat: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a o b) mat (a o b)* for an (nm) x (nm) ``mat``, n x n ``a`` and m x m
    ``b``, or for each (mat, a, b) of three stacks with the same leading
    axes, without forming the Kronecker product: on the (n, m, n, m) view
    of ``mat``, a, b, conj(a) and conj(b) each act on one index."""
    n, m = a.shape[-1], b.shape[-1]
    lead = mat.shape[:-2]
    t = (a @ mat.reshape(*lead, n, -1)).reshape(*lead, n, m, n * m)
    t = (b[..., None, :, :] @ t).reshape(*lead, n * m, n, m)
    t = (a.conj()[..., None, :, :] @ t).reshape(*lead, -1, m)
    return (t @ b.conj().swapaxes(-1, -2)).reshape(*lead, n * m, n * m)
