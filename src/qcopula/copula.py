"""Copula construction for full-rank bipartite states.

Pipeline: read the state as a map Phi, iterate the contraction
T = inv o Phi* o inv o Phi to its unique fixed ray, extract the scaling
pair (phi0, phi1) solving

    Phi(phi0^{-1}) = (1/m) phi1^{-1}        Phi*(phi1) = (1/n) phi0,

factor phi_k = psi_k* psi_k, and conjugate the state by
(psi0^{-1})^T o psi1 to reach the unique-up-to-local-unitaries
representative with maximally mixed marginals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import choi as choimod
from . import matcore, states
from .errors import (
    InvalidInput,
    NotConverged,
    NotPrecopula,
    PrecopulaCheckFailed,
    RankDeficient,
    ShapeMismatch,
    SingularIntermediate,
    VerificationFailed,
)

SINGULAR_EIG_RTOL = 1e-14
SCALING_EQ_RTOL = 1e-9
PRECOPULA_TOL = 1e-8
ANDERSON_MEMORY = 4  # differences the fixed-point extrapolation keeps

_CONFIG_FIELDS = ("tol", "marginal_tol", "max_iter", "rank_tol", "regularize", "reg_eps")


@dataclass
class SolverConfig:
    """Solver knobs; mirrored field-for-field by the CLI JSON config."""

    tol: float = 1e-12
    marginal_tol: float = 1e-10
    max_iter: int = 1000
    rank_tol: float = 1e-10
    regularize: bool = False
    reg_eps: float = 1e-8

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    @classmethod
    def from_dict(cls, obj, base: "SolverConfig | None" = None) -> "SolverConfig":
        if not isinstance(obj, dict):
            raise InvalidInput("config: expected a JSON object")
        cfg = SolverConfig() if base is None else SolverConfig(**base.to_dict())
        for key, value in obj.items():
            if key not in _CONFIG_FIELDS:
                raise InvalidInput(f"config: unknown field {key!r}")
            if key in ("regularize",):
                if not isinstance(value, bool):
                    raise InvalidInput(f"config: {key} must be a boolean")
                setattr(cfg, key, value)
            elif key in ("max_iter",):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise InvalidInput(f"config: {key} must be an integer")
                setattr(cfg, key, value)
            else:
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    raise InvalidInput(f"config: {key} must be a number")
                setattr(cfg, key, float(value))
        return cfg

    def _check_ranges(self) -> None:
        """Raise ``InvalidInput`` naming the first setting out of range."""
        for name in ("tol", "marginal_tol", "rank_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"config: {name} must be finite, got {getattr(self, name)!r}")
        if self.tol <= 0.0:
            raise InvalidInput(f"config: tol must be positive, got {self.tol!r}")
        if self.max_iter < 1:
            raise InvalidInput(f"config: max_iter must be at least 1, got {self.max_iter!r}")
        if not 0.0 < self.reg_eps < 1.0:
            raise InvalidInput(f"config: reg_eps must be in (0, 1), got {self.reg_eps!r}")


@dataclass
class FixedPointReport:
    """Outcome of the contraction iteration."""

    phi_ray: np.ndarray  # trace-one positive-definite fixed point, n x n
    lam: float  # scale of one extra map application at the fixed point
    iterations: int
    final_step: float  # projective distance between the last two iterates
    converged: bool
    step_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    tol: float = 1e-12  # stopping tolerance of the run; sets the verification bounds
    restarts: int = 0  # Anderson extrapolants rejected for the plain step


@dataclass
class ScalerPair:
    """Positive-definite scaling matrices and their chosen factors."""

    phi0: np.ndarray
    phi1: np.ndarray
    psi0: np.ndarray
    psi1: np.ndarray
    residual_forward: float
    residual_adjoint: float


@dataclass
class CopulaResult:
    """Precopula representative plus everything needed to audit the run."""

    chi: states.DensityMatrix
    scalers: ScalerPair
    report: FixedPointReport
    marginal_residual: float
    regularized: bool = False
    reg_eps: float = 0.0


def _eig_pd(mat: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a Hermitian positive-definite matrix, read from
    its lower triangle as ``eigh`` does; eigenvalues below the relative
    floor signal a near-rank-deficient input upstream."""
    w, v = np.linalg.eigh(mat)
    if w[-1] <= 0.0 or w[0] <= SINGULAR_EIG_RTOL * w[-1]:
        raise SingularIntermediate(
            f"{context}: eigenvalue {w[0]:.3e} below {SINGULAR_EIG_RTOL:g} of maximum "
            f"{w[-1]:.3e}; the input state is likely near rank deficiency "
            "(consider regularize=True)"
        )
    return w, v


def _inv_pd(mat: np.ndarray, context: str) -> np.ndarray:
    """Inverse of a positive-definite matrix, floored as in ``_eig_pd``."""
    w, v = _eig_pd(mat, context)
    return (v * (1.0 / w)) @ v.conj().T


def _apply_t(phi: choimod.ChoiOperator, x: np.ndarray):
    """One application of T = inv o Phi* o inv o Phi to a positive-definite
    ``x``.

    The maps skip the input checks of ``choi.apply`` and
    ``choi.apply_adjoint``, which every matrix built here passes by
    construction. Returns T(x) with the eigenpairs (w, v) of the adjoint
    image Y, of which T(x) is the inverse. Nothing is symmetrized:
    ``eigh`` reads only the lower triangle, so the rounding-level asymmetry
    of its inputs does not reach the eigenpairs.
    """
    forward = _inv_pd(phi._apply(x), "forward image")
    w, v = _eig_pd(phi._apply_adjoint(forward), "adjoint image")
    return (v * (1.0 / w)) @ v.conj().T, w, v


def _step_to_inverse(x: np.ndarray, w: np.ndarray, v: np.ndarray) -> float:
    """Hilbert distance between a positive-definite ``x`` and the ray of
    Y^{-1}, for Y = v diag(w) v*.

    That is log(max/min) over the spectrum of Y^{1/2} x Y^{1/2}, which is
    the spectrum of (v* x v) scaled entrywise by sqrt(w) sqrt(w)^T, so it
    needs no factorization beyond the one Y already has.
    """
    s = np.sqrt(w)
    ev = np.linalg.eigvalsh((v.conj().T @ x @ v) * (s[:, None] * s))
    return math.log(ev[-1] / ev[0]) if ev[0] > 0.0 else math.inf


def fixed_point_iterate(
    phi: choimod.ChoiOperator,
    tol: float = 1e-12,
    max_iter: int = 1000,
    init=None,
) -> FixedPointReport:
    """Find the fixed ray of T by safeguarded Anderson acceleration of
    x -> T(x)/Tr T(x), stopping once an iterate x is within ``tol`` of
    T(x) in the projective metric.

    Each step applies T to the trace-one iterate x_k, giving the plain image
    g_k = T(x_k)/Tr T(x_k); the step d(T(x_k), x_k) is read off the
    eigenpairs T already computes for its last inverse. The next iterate
    mixes g_k with the last ``ANDERSON_MEMORY`` (at most n^2 - 1)
    differences of the images and of the residuals f = g - x (type-II
    Anderson on the real view of the matrices). An extrapolant that is not finite or not positive definite
    at the ``SINGULAR_EIG_RTOL`` floor, or a singular least-squares system,
    clears the memory and the plain step x_{k+1} = g_k is taken instead;
    ``restarts`` counts these. The stopping rule is the plain contraction's,
    so the returned ray is the plain image g_k of a converged run. On a run
    that does not converge, ``phi_ray`` is the iterate the next step would
    have started from. ``lam`` is read off from a single extra application
    of T to the trace-one ray.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")
    n = phi.dim_in
    if init is None:
        x = np.eye(n, dtype=np.complex128) / n
    else:
        x = matcore.require_hermitian(init, what="init")
        if x.shape != (n, n):
            raise ShapeMismatch(f"init has shape {x.shape}, expected ({n}, {n})")
        if np.linalg.eigvalsh(x)[0] <= 0.0:
            raise ValueError("init must be positive definite")
        x = x / np.trace(x).real
    # Differences of trace-one Hermitian matrices span n^2 - 1 real
    # dimensions, so more rows than that would make the Gram system singular
    # by construction. Rows [:stored] hold the latest differences of g and of
    # f = g - x (Delta g = Delta x + Delta f), filled in order and then
    # overwritten oldest first from ``head``.
    memory = min(ANDERSON_MEMORY, max(n * n - 1, 1))
    dg = np.empty((memory, 2 * n * n))
    df = np.empty_like(dg)
    stored = head = restarts = 0
    g_prev = f_prev = None
    steps: list[float] = []
    converged = False
    for iterations in range(1, max_iter + 1):
        t, w, v = _apply_t(phi, x)
        step = _step_to_inverse(x, w, v)
        steps.append(step)
        g = t / np.trace(t).real
        if step <= tol:
            converged = True
            x = g
            break
        g_real = g.view(np.float64).reshape(-1)
        f = g_real - x.view(np.float64).reshape(-1)
        x = g
        if f_prev is not None:
            row = stored if stored < memory else head
            np.subtract(g_real, g_prev, out=dg[row])
            np.subtract(f, f_prev, out=df[row])
            if stored < memory:
                stored += 1
            else:
                head = (head + 1) % memory
            dfs = df[:stored]
            ev = None
            try:
                gamma = np.linalg.solve(dfs @ dfs.T, dfs @ f)
                candidate = (g_real - gamma @ dg[:stored]).view(np.complex128).reshape(n, n)
                if np.isfinite(candidate).all():
                    ev = np.linalg.eigvalsh(candidate)
            except np.linalg.LinAlgError:
                pass
            if ev is not None and ev[0] > SINGULAR_EIG_RTOL * ev[-1]:
                x = candidate
            else:
                restarts += 1
                stored = head = 0
        g_prev, f_prev = g_real, f
    x = matcore.hermitian_part(x)
    lam = float(np.trace(_apply_t(phi, x)[0]).real)
    return FixedPointReport(
        phi_ray=x,
        lam=lam,
        iterations=iterations,
        final_step=steps[-1],
        converged=converged,
        step_history=np.asarray(steps),
        tol=tol,
        restarts=restarts,
    )


def scaling_equation_residuals(
    phi: choimod.ChoiOperator, phi0: np.ndarray, phi1: np.ndarray
) -> tuple[float, float]:
    """Relative Frobenius residuals of the two defining equations for the
    scaling pair."""
    n, m = phi.dim_in, phi.dim_out
    lhs1 = choimod.apply(phi, _inv_pd(phi0, "phi0"))
    rhs1 = _inv_pd(phi1, "phi1") / m
    res1 = float(np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(rhs1))
    lhs2 = choimod.apply_adjoint(phi, phi1)
    rhs2 = phi0 / n
    res2 = float(np.linalg.norm(lhs2 - rhs2) / np.linalg.norm(rhs2))
    return res1, res2


def extract_scalers(
    phi: choimod.ChoiOperator,
    report: FixedPointReport,
    factorization: str = "sqrt",
) -> ScalerPair:
    """Build (phi0, phi1) from the fixed ray and factor them.

    phi1 = (1/m) (Phi(phi_ray))^{-1} and phi0 = n Phi*(phi1); both defining
    equations are re-checked before returning, at the run's stopping
    tolerance or 1e-9 relative, whichever is looser.
    """
    if not report.converged:
        raise NotConverged("scaling matrices require a converged fixed point", report=report)
    n, m = phi.dim_in, phi.dim_out
    phi1 = matcore.hermitian_part(_inv_pd(phi._apply(report.phi_ray), "forward image") / m)
    phi0 = matcore.hermitian_part(n * phi._apply_adjoint(phi1))
    res1, res2 = scaling_equation_residuals(phi, phi0, phi1)
    bound = max(SCALING_EQ_RTOL, report.tol)
    if res1 > bound or res2 > bound:
        raise VerificationFailed(
            f"scaling equations missed {bound:g} relative: "
            f"forward {res1:.3e}, adjoint {res2:.3e}"
        )
    psi0 = matcore.cholesky_like_factor(phi0, factorization)
    psi1 = matcore.cholesky_like_factor(phi1, factorization)
    return ScalerPair(phi0, phi1, psi0, psi1, res1, res2)


def connection_matrices(scalers: ScalerPair) -> tuple[np.ndarray, np.ndarray]:
    """Invertible (a, b) with (a* o b*) rho (a o b) = chi for the run that
    produced ``scalers``."""
    a = np.conj(np.linalg.inv(scalers.psi0))
    b = scalers.psi1.conj().T
    return a, b


def copula_of(
    rho: states.DensityMatrix,
    cfg: SolverConfig | None = None,
    *,
    factorization: str = "sqrt",
) -> CopulaResult:
    """Compute the uniform-marginal representative connected to ``rho``.

    Requires a full-rank input; with ``cfg.regularize`` the state is first
    mixed with eps * I/(nm) and the result is (explicitly) the copula of
    the perturbed state. Settings out of range raise ``InvalidInput``.
    """
    cfg = SolverConfig() if cfg is None else cfg
    cfg._check_ranges()
    n, m = rho.dim_a, rho.dim_b
    work = rho
    regularized = False
    if cfg.regularize:
        eps = cfg.reg_eps
        mixed = (1.0 - eps) * rho.mat + eps * np.eye(rho.dim) / rho.dim
        work = states.DensityMatrix(matcore.hermitian_part(mixed), n, m, _cholesky=True)
        regularized = True
    else:
        lo, hi = rho.eig_range
        if lo <= cfg.rank_tol * max(hi, 0.0):
            raise RankDeficient(
                f"state eigenvalue floor {lo:.3e} is below rank_tol={cfg.rank_tol:g} "
                f"of the top eigenvalue; pass regularize=True to proceed on a perturbed state"
            )
    phi = choimod.choi_from_state(work)
    report = fixed_point_iterate(phi, tol=cfg.tol, max_iter=cfg.max_iter)
    if not report.converged:
        raise NotConverged(
            f"fixed point not reached in {cfg.max_iter} iterations "
            f"(last step {report.final_step:.3e} > tol {cfg.tol:g})",
            report=report,
        )
    scalers = extract_scalers(phi, report, factorization)
    # Entrywise (non-conjugate) transpose on the first factor; conjugating
    # here breaks marginal uniformity for complex-valued states.
    left = np.kron(np.linalg.inv(scalers.psi0).T, scalers.psi1)
    raw = matcore.hermitian_part(left @ work.mat @ left.conj().T)
    raw /= np.trace(raw).real
    # chi is congruent to the checked state by an invertible matrix, so it is
    # positive definite (Sylvester's law of inertia); Cholesky confirms it.
    chi = states.DensityMatrix(raw, n, m, _cholesky=True)
    residual = max(states.marginal_residuals(chi))
    marginal_bound = max(cfg.marginal_tol, report.tol)
    if residual > marginal_bound:
        raise PrecopulaCheckFailed(
            f"converged run produced marginal residual {residual:.3e} "
            f"> {marginal_bound:g}; this indicates a bug"
        )
    return CopulaResult(
        chi=chi,
        scalers=scalers,
        report=report,
        marginal_residual=residual,
        regularized=regularized,
        reg_eps=cfg.reg_eps if regularized else 0.0,
    )


def verify_connection(
    rho: states.DensityMatrix, chi: states.DensityMatrix, a, b
) -> float:
    """Frobenius distance between the trace-normalized conjugate
    (a* o b*) rho (a o b) and ``chi``."""
    am = matcore.as_cmatrix(a)
    bm = matcore.as_cmatrix(b)
    if am.shape != (rho.dim_a, rho.dim_a):
        raise ShapeMismatch(f"a has shape {am.shape}, expected ({rho.dim_a}, {rho.dim_a})")
    if bm.shape != (rho.dim_b, rho.dim_b):
        raise ShapeMismatch(f"b has shape {bm.shape}, expected ({rho.dim_b}, {rho.dim_b})")
    k = np.kron(am, bm)
    lhs = k.conj().T @ rho.mat @ k
    tr = float(np.trace(lhs).real)
    if tr <= 0.0:
        raise ValueError("conjugated state has non-positive trace")
    return float(np.linalg.norm(lhs / tr - chi.mat))


def copula_invariants(chi: states.DensityMatrix, tol: float = PRECOPULA_TOL) -> np.ndarray:
    """Local-unitary-invariant fingerprint of a precopula: sorted global
    spectrum, Tr(chi^2), Tr(chi^3), and the sorted partial-transpose
    spectrum. Equal fingerprints are necessary (not sufficient) for two
    precopulas to represent the same copula class."""
    if not states.is_precopula(chi, tol):
        raise NotPrecopula(f"marginals are not uniform within {tol:g}")
    spectrum = np.sort(np.linalg.eigvalsh(matcore.hermitian_part(chi.mat)))
    pt = np.sort(np.linalg.eigvalsh(matcore.hermitian_part(states.partial_transpose(chi))))
    sq = chi.mat @ chi.mat
    powers = [float(np.trace(sq).real), float(np.trace(sq @ chi.mat).real)]
    return np.concatenate([spectrum, powers, pt])
