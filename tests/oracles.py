"""Independent constructions of a map's Choi matrix, of Phi and Phi*, of
the scaling equations' residuals and of the copula itself, written the
long way round so the tests can check ``qcopula``'s products against code
they do not share.

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


def scaling_residuals(phi: choi.ChoiOperator, phi0, phi1) -> tuple[float, float]:
    """Relative Frobenius residuals (forward, adjoint) of the defining
    equations Phi(phi0^{-1}) = phi1^{-1}/m and Phi*(phi1) = phi0/n, with Phi
    by the partial-trace formula, Phi* as that formula on the adjoint map and
    the inverses by ``np.linalg.inv``."""
    n, m = phi.dim_in, phi.dim_out
    rhs1 = np.linalg.inv(phi1) / m
    rhs2 = np.asarray(phi0) / n
    miss1 = apply_via_partial_trace(phi, np.linalg.inv(phi0)) - rhs1
    miss2 = apply_via_partial_trace(adjoint(phi), phi1) - rhs2
    norm = np.linalg.norm
    return float(norm(miss1) / norm(rhs1)), float(norm(miss2) / norm(rhs2))


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    """a^{-1/2} of a Hermitian positive-definite matrix, by ``eigh``."""
    w, v = np.linalg.eigh(a)
    return (v / np.sqrt(w)) @ v.conj().T


def _conjugate(rho: np.ndarray, k: np.ndarray) -> np.ndarray:
    """k rho k*, Hermitian part, trace one."""
    out = k @ rho @ k.conj().T
    out = (out + out.conj().T) / 2.0
    return out / np.trace(out).real


def operator_sinkhorn(mat, n: int, m: int, tol: float = 1e-14, max_sweeps: int = 5000):
    """Gurvits' operator scaling of a full-rank (n, m) state: conjugate it
    alternately by (n Tr_B rho)^{-1/2} o I and I o (m Tr_A rho)^{-1/2},
    trace-normalizing, until both marginals are within ``tol`` of I/n and
    I/m entrywise. No Choi realignment, projective metric or extrapolation
    is involved.

    Returns (chi, a, b) with chi = (a o b) rho (a o b)* / Tr, uniform
    marginals, and a, b the products of the factors applied. Raises
    ``AssertionError`` if ``max_sweeps`` sweeps do not reach ``tol``.
    """
    rho = np.array(mat, dtype=np.complex128)
    a, b = np.eye(n, dtype=np.complex128), np.eye(m, dtype=np.complex128)
    for _ in range(max_sweeps):
        t = rho.reshape(n, m, n, m)
        first, second = np.einsum("ikjk->ij", t), np.einsum("ikil->kl", t)
        gap = max(np.abs(first - np.eye(n) / n).max(), np.abs(second - np.eye(m) / m).max())
        if gap <= tol:
            return rho, a, b
        x = _inv_sqrt(n * first)
        a = x @ a
        rho = _conjugate(rho, np.kron(x, np.eye(m)))
        y = _inv_sqrt(m * np.einsum("ikil->kl", rho.reshape(n, m, n, m)))
        b = y @ b
        rho = _conjugate(rho, np.kron(np.eye(n), y))
    raise AssertionError(f"operator Sinkhorn missed {tol:g} after {max_sweeps} sweeps")
