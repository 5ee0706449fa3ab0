"""Dense complex-matrix kernel used by every other module.

All tolerances are relative to the largest entry magnitude of the input
unless stated otherwise.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.linalg import LinAlgError

from .errors import NonFinite, NotHermitian, ShapeMismatch

try:
    from numpy.linalg import _umath_linalg
except ImportError:
    _umath_linalg = None

HERMITIAN_RTOL = 1e-10


def _lapack_failed(err, flag):
    """The floating-point error callback of ``_lapack_errors``: a gufunc
    flags a failed factorization as an invalid value."""
    raise LinAlgError(err)


# numpy.linalg's public functions hold this state around each gufunc call
_LINALG_ERRSTATE = dict(
    call=_lapack_failed, invalid="call", over="ignore", divide="ignore", under="ignore"
)


def _lapack_errors():
    """Context in which the LAPACK helpers below fail as ``numpy.linalg``
    does: numpy's floating-point error state is the one the public functions
    hold around each gufunc call (an invalid value raises ``LinAlgError``;
    overflow, division by zero and underflow are ignored). Each public entry
    point that reaches a helper holds one for its whole run, and entries
    nest as ``np.errstate``'s do. The state covers the solve's other numpy
    arithmetic too. Its operands pass the solver's finiteness and floor
    checks first, but for the Anderson candidate's, which may overflow or
    turn invalid on a near-singular Gram system; such a candidate is
    rejected under either error state."""
    return np.errstate(**_LINALG_ERRSTATE)


def _gufunc_call(gufunc, signature: str, message: str):
    """``gufunc`` with its signature fixed; a failure flagged inside
    ``_lapack_errors`` raises ``LinAlgError(message)``, numpy.linalg's."""

    def call(*args):
        try:
            return gufunc(*args, signature=signature)
        except LinAlgError:
            raise LinAlgError(message) from None

    return call


def _lapack_routines(umath) -> tuple:
    """(eigh, eigvalsh, solve, inv, cholesky): the factorizations of the
    solve path, each a direct call of a gufunc of ``umath`` (numpy's private
    ``numpy.linalg._umath_linalg``) without the public wrapper's argument
    handling and error state.

    eigh, eigvalsh, inv and cholesky take complex128 matrices and solve
    float64 ones (its right side a vector or a stack of matrices); each takes
    one matrix or a stack, reads a Hermitian input's lower triangle and
    returns numpy.linalg's bits, since the same gufunc runs on the same
    input. A failure raises numpy.linalg's ``LinAlgError`` inside
    ``_lapack_errors``; outside it the gufunc warns and returns NaN. Where
    ``umath`` is None or lacks a gufunc, the routines are the public
    functions, which need no guard."""
    names = ("eigh_lo", "eigvalsh_lo", "solve", "solve1", "inv", "cholesky_lo")
    if umath is None or not all(hasattr(umath, name) for name in names):
        linalg = np.linalg
        return linalg.eigh, linalg.eigvalsh, linalg.solve, linalg.inv, linalg.cholesky
    eigh_lo, eigvalsh_lo, solve_m, solve_v, inv, cholesky_lo = (getattr(umath, k) for k in names)
    solve_m = _gufunc_call(solve_m, "dd->d", "Singular matrix")
    solve_v = _gufunc_call(solve_v, "dd->d", "Singular matrix")

    def solve(a, b):
        return solve_v(a, b) if b.ndim == 1 else solve_m(a, b)

    return (
        _gufunc_call(eigh_lo, "D->dD", "Eigenvalues did not converge"),
        _gufunc_call(eigvalsh_lo, "D->d", "Eigenvalues did not converge"),
        solve,
        _gufunc_call(inv, "D->D", "Singular matrix"),
        _gufunc_call(cholesky_lo, "D->D", "Matrix is not positive definite"),
    )


_eigh, _eigvalsh, _solve, _inv, _cholesky = _lapack_routines(_umath_linalg)


def as_cmatrix(a, dim: int, what: str) -> np.ndarray:
    """The one matrix intake: ``a`` as a finite, read-only (dim, dim)
    complex128 array the caller may keep; the ``ShapeMismatch`` or
    ``NonFinite`` it raises names ``what``. A read-only complex128 array that
    owns its data, such as a checked state's matrix, is returned as it is;
    anything else is copied."""
    owned = type(a) is np.ndarray and a.flags.owndata and not a.flags.writeable
    m = a if owned and a.dtype == np.complex128 else np.array(a, dtype=np.complex128)
    m.flags.writeable = False
    if m.shape != (dim, dim):
        raise ShapeMismatch(f"{what} has shape {m.shape}, expected ({dim}, {dim})")
    if not np.isfinite(m).all():
        raise NonFinite(f"{what} contains NaN or Inf entries")
    return m


def max_abs(a: np.ndarray):
    """Largest entry magnitude of one matrix or of each in a stack; 0.0 for
    an empty matrix, NaN where a matrix holds a NaN."""
    return np.abs(a).max(axis=(-2, -1), initial=0.0)


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2, of one matrix or of each in a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def hermitian_defect(a: np.ndarray):
    """Largest entry of |a - a*| of one matrix or of each in a stack; zero
    exactly for Hermitian input."""
    return max_abs(a - a.conj().swapaxes(-1, -2))


def hermitian_parts(
    a: np.ndarray, rtol: float = HERMITIAN_RTOL, what: str = "matrix", scale_floor: float = 0.0
):
    """The Hermitian check of one square complex matrix or of each in a
    stack (S, d, d): returns (h, errors), h the Hermitian parts as a fresh
    array of a's shape and errors a list with one entry per matrix, None
    where it passes, else the ``NonFinite`` or ``NotHermitian`` error
    ``require_hermitian`` raises for it alone. A matrix passes when it is
    finite and Hermitian within ``rtol * max(scale, scale_floor)``, scale
    its largest entry magnitude. The parts of failing matrices are not
    meaningful, and non-finite entries raise no ``RuntimeWarning``."""
    stack = a if a.ndim == 3 else a[None]
    scale = max_abs(stack)
    if scale_floor:
        scale = np.maximum(scale, scale_floor)
    # NaN or Inf anywhere makes a matrix's largest magnitude, and the sum of
    # the scales, non-finite; inf - inf in the defect would then warn. A sum
    # that overflows on finite scales only takes the guarded branch.
    if math.isfinite(sum(scale.tolist())):
        defect = hermitian_defect(stack)
        h = hermitian_part(a)
        bad = defect > rtol * scale
    else:
        with np.errstate(invalid="ignore"):
            defect = hermitian_defect(stack)
            h = hermitian_part(a)
        bad = ~np.isfinite(scale) | (defect > rtol * scale)
    errors = [None] * len(stack)
    for k in bad.nonzero()[0].tolist():
        s = float(scale[k])
        if math.isfinite(s):
            errors[k] = NotHermitian(
                f"{what} is not Hermitian within {rtol:g} relative "
                f"(defect {float(defect[k]):.3e}, scale {s:.3e})"
            )
        else:
            errors[k] = NonFinite(f"{what} contains NaN or Inf entries")
    return h, errors


def require_hermitian(
    a, rtol: float = HERMITIAN_RTOL, what: str = "matrix", scale_floor: float = 0.0
) -> np.ndarray:
    """Validate that ``a`` is a finite square matrix, Hermitian within
    ``rtol * max(scale, scale_floor)`` where scale is its largest entry
    magnitude, and return its Hermitian part as a fresh array: the
    ``hermitian_parts`` check of one matrix, its error raised.

    ``a`` itself is neither copied nor modified, so callers that keep the
    input as given can validate it without a second copy.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"{what} must be a square matrix, got shape {m.shape}")
    h, (error,) = hermitian_parts(m, rtol, what, scale_floor)
    if error is not None:
        raise error
    return h


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
