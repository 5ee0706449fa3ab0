"""Choi-matrix representation of linear maps M(n) -> M(m).

A map Phi is stored as the nm x nm block matrix whose (i, j) block of size
m x m equals Phi(E_ij); a bipartite state and the Choi matrix of its map
are the same array read two ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import matcore
from .errors import SingularTransform
from .states import DensityMatrix

CONDITION_CAP = 1e12


@dataclass(frozen=True, eq=False)
class ChoiOperator:
    """A linear map M(dim_in) -> M(dim_out) stored via its Choi matrix.

    ``choi`` is read-only: a state's matrix is shared, anything writable is
    copied. Construction also stores the realigned (n^2, m^2) matrix R with
    R[(i,j), (k,l)] = choi[(i,k), (j,l)], the map's matrix on row-major
    vectorizations, so Phi(X) = vec(X) R and Phi*(Y) = conj(R) vec(Y) are
    one matrix product each.
    """

    choi: np.ndarray
    dim_in: int
    dim_out: int
    _realigned: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, m = self.dim_in, self.dim_out
        choi = matcore.as_cmatrix(self.choi, n * m, "Choi matrix")
        realigned = choi.reshape(n, m, n, m).transpose(0, 2, 1, 3).reshape(n * n, m * m)
        realigned.flags.writeable = False
        object.__setattr__(self, "choi", choi)
        object.__setattr__(self, "_realigned", realigned)

    def tensor_view(self) -> np.ndarray:
        return self.choi.reshape(self.dim_in, self.dim_out, self.dim_in, self.dim_out)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """Phi(X) for an n x n complex array, unchecked."""
        return (x.reshape(-1) @ self._realigned).reshape(self.dim_out, self.dim_out)

    def _apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Phi*(Y) for an m x m complex array, unchecked; conj(R) vec(Y) is
        computed as conj(R conj(vec(Y))) so R is never conjugated whole."""
        out = self._realigned @ np.conj(y.reshape(-1))
        return np.conj(out).reshape(self.dim_in, self.dim_in)


def choi_from_state(rho: DensityMatrix) -> ChoiOperator:
    """Reinterpret a bipartite state as the Choi matrix of its map; the
    operator shares the state's checked, read-only matrix."""
    return ChoiOperator(rho.mat, rho.dim_a, rho.dim_b)


def choi_from_map(fn, n: int, m: int) -> ChoiOperator:
    """Assemble the Choi matrix of an arbitrary map by feeding it every
    matrix unit E_ij; the direct-construction oracle for transform tests."""
    t = np.zeros((n, m, n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            t[i, :, j, :] = np.asarray(fn(e), dtype=np.complex128)
    return ChoiOperator(t.reshape(n * m, n * m), n, m)


def apply(phi: ChoiOperator, x) -> np.ndarray:
    """Phi(X) = sum_ij X[i,j] Phi(E_ij); returns an m x m matrix."""
    return phi._apply(matcore.as_cmatrix(x, phi.dim_in, "input"))


def apply_via_partial_trace(phi: ChoiOperator, x) -> np.ndarray:
    """Equivalent formula Tr_1((X^T o I_m) choi); cross-check route only."""
    n, m = phi.dim_in, phi.dim_out
    xm = matcore.as_cmatrix(x, n, "input")
    prod = np.kron(xm.T, np.eye(m)) @ phi.choi
    return np.einsum("ikil->kl", prod.reshape(n, m, n, m))


def apply_adjoint(phi: ChoiOperator, y) -> np.ndarray:
    """Hilbert-Schmidt adjoint: Phi*(Y)[i,j] = Tr(Phi(E_ij)* Y), the unique
    map satisfying <Phi(X), Y> = <X, Phi*(Y)>."""
    return phi._apply_adjoint(matcore.as_cmatrix(y, phi.dim_out, "input"))


def adjoint(phi: ChoiOperator) -> ChoiOperator:
    """The adjoint map as a ChoiOperator from M(dim_out) to M(dim_in)."""
    t = np.conj(phi.tensor_view().transpose(1, 0, 3, 2))
    d = phi.dim_in * phi.dim_out
    return ChoiOperator(np.ascontiguousarray(t).reshape(d, d), phi.dim_out, phi.dim_in)


def sandwich_transform(phi: ChoiOperator, a, b) -> ChoiOperator:
    """Choi matrix of X -> B Phi(A X A*) B*, i.e. (A^T o B) choi (A^T o B)*.

    The transpose on the A side is entrywise (non-conjugate).
    """
    n, m = phi.dim_in, phi.dim_out
    am = matcore.as_cmatrix(a, n, "a")
    bm = matcore.as_cmatrix(b, m, "b")
    ca = float(np.linalg.cond(am, 2))
    cb = float(np.linalg.cond(bm, 2))
    if not np.isfinite(ca) or not np.isfinite(cb) or ca > CONDITION_CAP or cb > CONDITION_CAP:
        raise SingularTransform(
            f"transform matrices too ill-conditioned: cond(a)={ca:.3e}, cond(b)={cb:.3e}"
        )
    return ChoiOperator(matcore.local_congruence(phi.choi, am.T, bm), n, m)
