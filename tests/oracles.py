"""Independent constructions of a map's Choi matrix and of Phi and Phi*,
written the long way round so the tests can check ``qcopula.choi``'s
products against them.

A map Phi: M(n) -> M(m) has the nm x nm Choi matrix whose (i, j) block of
size m x m is Phi(E_ij); its (n, m, n, m) view ``choi.reshape(n, m, n, m)``
indexes that block as ``[i, :, j, :]``.
"""

import numpy as np

from qcopula import choi, matcore


def choi_from_map(fn, n: int, m: int) -> choi.ChoiOperator:
    """Assemble the Choi matrix of an arbitrary map by feeding it every
    matrix unit E_ij."""
    t = np.zeros((n, m, n, m), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            t[i, :, j, :] = np.asarray(fn(e), dtype=np.complex128)
    return choi.ChoiOperator(t.reshape(n * m, n * m), n, m)


def apply_via_partial_trace(phi: choi.ChoiOperator, x) -> np.ndarray:
    """Phi(X) by the equivalent formula Tr_1((X^T o I_m) choi)."""
    n, m = phi.dim_in, phi.dim_out
    xm = matcore.as_cmatrix(x, n, "input")
    prod = np.kron(xm.T, np.eye(m)) @ phi.choi
    return np.einsum("ikil->kl", prod.reshape(n, m, n, m))


def adjoint(phi: choi.ChoiOperator) -> choi.ChoiOperator:
    """The adjoint map as a ChoiOperator from M(dim_out) to M(dim_in)."""
    n, m = phi.dim_in, phi.dim_out
    t = np.conj(phi.choi.reshape(n, m, n, m).transpose(1, 0, 3, 2))
    return choi.ChoiOperator(np.ascontiguousarray(t).reshape(n * m, n * m), m, n)
