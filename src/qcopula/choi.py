"""Choi-matrix representation of linear maps M(n) -> M(m).

A map Phi is stored as the nm x nm block matrix whose (i, j) block of size
m x m equals Phi(E_ij); a bipartite state and the Choi matrix of its map
are the same array read two ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .states import DensityMatrix, _factor_dims


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """A linear map M(dim_in) -> M(dim_out) stored via its Choi matrix.

    ``choi`` is read-only: a state's matrix is shared, anything writable is
    copied. Construction also stores the realigned (n^2, m^2) matrix R with
    R[(i,j), (k,l)] = choi[(i,k), (j,l)], the map's matrix on row-major
    vectorizations, so Phi(X) = vec(X) R and Phi*(Y) = conj(R) vec(Y) are
    one matrix product each (``_forward`` and ``_adjoint``).
    """

    choi: np.ndarray
    dim_in: int
    dim_out: int
    _realigned: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = _factor_dims(self.dim_in, self.dim_out)
        choi = matcore.as_cmatrix(self.choi, n * m, "Choi matrix")
        realigned = choi.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        realigned.flags.writeable = False
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "dim_in", n)
        object.__setattr__(self, "dim_out", m)
        object.__setattr__(self, "_realigned", realigned)


def _forward(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Phi(X) = vec(X) R for a realigned matrix R of ``ChoiOperator`` and an
    n x n complex X, unchecked; or for stacks R (..., n^2, m^2) and
    X (..., n, n) with the same leading axes, which may be empty."""
    lead = x.shape[:-2]
    m = math.isqrt(r.shape[-1])
    return (x.reshape(lead + (1, r.shape[-2])) @ r).reshape(lead + (m, m))


def _adjoint(r: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Phi*(Y) = conj(R) vec(Y) as ``_forward`` takes its arguments, for an
    m x m Y or a stack of them. It is computed as conj(R conj(vec(Y))), so
    R is never conjugated whole."""
    lead = y.shape[:-2]
    n = math.isqrt(r.shape[-2])
    return np.conj(r @ np.conj(y.reshape(lead + (r.shape[-1], 1)))).reshape(lead + (n, n))


def choi_from_state(rho: DensityMatrix) -> ChoiOperator:
    """Reinterpret a bipartite state as the Choi matrix of its map; the
    operator shares the state's checked, read-only matrix."""
    return ChoiOperator(rho.mat, rho.dim_a, rho.dim_b)


def apply(phi: ChoiOperator, x) -> np.ndarray:
    """Phi(X) = sum_ij X[i,j] Phi(E_ij); returns an m x m matrix."""
    return _forward(phi._realigned, matcore.as_cmatrix(x, phi.dim_in, "input"))


def apply_adjoint(phi: ChoiOperator, y) -> np.ndarray:
    """Hilbert-Schmidt adjoint: Phi*(Y)[i,j] = Tr(Phi(E_ij)* Y), the unique
    map satisfying <Phi(X), Y> = <X, Phi*(Y)>."""
    return _adjoint(phi._realigned, matcore.as_cmatrix(y, phi.dim_out, "input"))
