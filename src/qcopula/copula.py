"""Copula construction for full-rank bipartite states.

Pipeline: read the state as a map Phi, iterate the contraction
T = inv o Phi* o inv o Phi to its unique fixed ray, extract the scaling
pair (phi0, phi1) solving

    Phi(phi0^{-1}) = (1/m) phi1^{-1}        Phi*(phi1) = (1/n) phi0,

take the Hermitian square roots psi_k = phi_k^{1/2}, and conjugate the
state by (psi0^{-1})^T o psi1 to reach the unique-up-to-local-unitaries
representative with maximally mixed marginals.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.linalg import LinAlgError

from . import choi as choimod
from . import matcore, states
from .errors import (
    InvalidInput,
    NotConverged,
    NotPrecopula,
    PrecopulaCheckFailed,
    QcopulaError,
    RankDeficient,
    SingularIntermediate,
    VerificationFailed,
)

SINGULAR_EIG_RTOL = 1e-14
SCALING_EQ_RTOL = 1e-9
PRECOPULA_TOL = 1e-8
ROUNDING_EPS = float(np.finfo(np.float64).eps)
ANDERSON_MEMORY = 4  # differences the fixed-point extrapolation keeps
BATCH_CHUNK = 64  # most states one stacked solve holds
BATCH_CHUNK_BYTES = 1 << 20  # most bytes their stacked realigned maps take
_DEFAULT_TOL = 1e-12  # the solver's stopping tolerance
_DEFAULT_MAX_ITER = 1000  # the solver's iteration cap

_TYPE_NOUNS = {bool: "a boolean", int: "an integer", float: "a number"}


@dataclass
class SolverConfig:
    """Solver knobs; mirrored field-for-field by the CLI JSON config."""

    tol: float = _DEFAULT_TOL
    marginal_tol: float = 1e-10
    max_iter: int = _DEFAULT_MAX_ITER
    rank_tol: float = 1e-10
    regularize: bool = False
    reg_eps: float = 1e-8

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj) -> "SolverConfig":
        """The defaults overridden by a JSON object's fields; a float field takes any number."""
        if not isinstance(obj, dict):
            raise InvalidInput("config: expected a JSON object")
        cfg = cls()
        kinds = typing.get_type_hints(cls)
        for key, value in obj.items():
            kind = kinds.get(key)
            if kind is None:
                raise InvalidInput(f"config: unknown field {key!r}")
            if isinstance(value, bool) != (kind is bool) or not isinstance(value, (kind, int)):
                raise InvalidInput(f"config: {key} must be {_TYPE_NOUNS[kind]}")
            try:
                setattr(cfg, key, kind(value))
            except OverflowError:
                raise InvalidInput(f"config: {key} is too large for a float") from None
        return cfg

    def _check_ranges(self) -> None:
        """Raise ``InvalidInput`` naming the first setting out of range."""
        for name in ("tol", "marginal_tol", "rank_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidInput(f"config: {name} must be finite, got {getattr(self, name)!r}")
        if self.tol <= 0.0:
            raise InvalidInput(f"config: tol must be positive, got {self.tol!r}")
        for name in ("marginal_tol", "rank_tol"):
            value = getattr(self, name)
            if value < 0.0:
                raise InvalidInput(f"config: {name} must be at least 0, got {value!r}")
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
    tol: float = _DEFAULT_TOL  # stopping tolerance of the run; sets the verification bounds
    restarts: int = 0  # Anderson extrapolants rejected for the plain step


@dataclass
class ScalerPair:
    """Positive-definite scaling matrices and their Hermitian square roots."""

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


def _below_floor(lo, hi):
    """Whether spectra from ``lo`` up to ``hi`` fail the relative floor; elementwise."""
    return (hi <= 0.0) | (lo <= SINGULAR_EIG_RTOL * hi)


def _singular(context: str, w: np.ndarray) -> SingularIntermediate:
    """The error for a spectrum ``w`` (ascending) below the relative floor."""
    return SingularIntermediate(
        f"{context}: eigenvalue {w[0]:.3e} below {SINGULAR_EIG_RTOL:g} of maximum "
        f"{w[-1]:.3e}; the input state is likely near rank deficiency "
        "(consider regularize=True)"
    )


def _eig_pd(mat: np.ndarray, context: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (w, v) of a complex Hermitian positive-definite matrix,
    read from its lower triangle as ``eigh`` does; eigenvalues below the
    relative floor signal a near-rank-deficient input upstream."""
    w, v = matcore._eigh(mat)
    if _below_floor(w[0], w[-1]):
        raise _singular(context, w)
    return w, v


def _pd_power(w: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """v diag(w^p) v*, the power p of the PD matrix with eigenpairs (w, v),
    or of each matrix in a stack."""
    return (v * w[..., None, :] ** p) @ v.conj().swapaxes(-1, -2)


def _inv_pd(mat: np.ndarray, context: str) -> np.ndarray:
    """Inverse of a positive-definite matrix, floored as in ``_eig_pd``."""
    return _pd_power(*_eig_pd(mat, context), -1.0)


def _apply_t(phi: choimod.ChoiOperator, x: np.ndarray):
    """One application of T = inv o Phi* o inv o Phi to a positive-definite
    ``x``.

    The maps skip the input checks of ``choi.apply`` and
    ``choi.apply_adjoint``, which every matrix built here passes by
    construction, and the two eigendecompositions call LAPACK through
    ``matcore._eigh``, without numpy.linalg's per-call wrapper, inside the
    numpy error state ``matcore._lapack_errors`` the calling entry point
    holds, so a failed factorization raises ``LinAlgError``. Returns
    T(x) with the eigenpairs (w, v) of the adjoint image Y, of which T(x)
    is the inverse. Nothing is symmetrized: ``eigh`` reads only the lower
    triangle, so the rounding-level asymmetry of its inputs does not reach
    the eigenpairs.
    """
    forward = _inv_pd(choimod._forward(phi._realigned, x), "forward image")
    w, v = _eig_pd(choimod._adjoint(phi._realigned, forward), "adjoint image")
    return _pd_power(w, v, -1.0), w, v


def _step_to_inverse(x: np.ndarray, w: np.ndarray, v: np.ndarray):
    """Hilbert distance between a positive-definite ``x`` and the ray of
    Y^{-1}, for Y = v diag(w) v*; for stacks x, w and v with the same
    leading axis, the list of each state's distance.

    That is log(max/min) over the spectrum of Y^{1/2} x Y^{1/2}, which is
    the spectrum of (v* x v) scaled entrywise by sqrt(w) sqrt(w)^T, so it
    needs no factorization beyond the one Y already has.
    """
    s = np.sqrt(w)
    ev = matcore._eigvalsh((v.conj().swapaxes(-1, -2) @ x @ v) * (s[..., None] * s[..., None, :]))
    if ev.ndim == 1:
        return _log_ratio(ev[0], ev[-1])
    return list(map(_log_ratio, ev[:, 0].tolist(), ev[:, -1].tolist()))


def _log_ratio(lo, hi) -> float:
    """log(hi/lo) of a positive spectrum's ends; inf once lo is not positive."""
    return math.log(hi / lo) if lo > 0.0 else math.inf


def _check_stopping(tol: float, max_iter: int) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter!r}")


def _initial_ray(n: int, init) -> np.ndarray:
    """The trace-one starting iterate: I/n, or ``init`` once checked to be
    Hermitian positive definite."""
    if init is None:
        return np.eye(n, dtype=np.complex128) / n
    x = matcore.require_hermitian(matcore.as_cmatrix(init, n, "init"), what="init")
    if matcore._eigvalsh(x)[0] <= 0.0:
        raise ValueError("init must be positive definite")
    return x / x.trace().real


def _anderson_memory(n: int) -> int:
    """Differences the extrapolation keeps at input dimension n. Differences
    of trace-one Hermitian matrices span n^2 - 1 real dimensions, so more
    rows than that would make the Gram system singular by construction."""
    return min(ANDERSON_MEMORY, max(n * n - 1, 1))


def fixed_point_iterate(
    phi: choimod.ChoiOperator,
    tol: float = _DEFAULT_TOL,
    max_iter: int = _DEFAULT_MAX_ITER,
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
    of T to the trace-one ray. The loop is ``_iterate``, the one place
    restarts are handled; ``fixed_point_batch`` hands it each restarting state.
    """
    _check_stopping(tol, max_iter)
    with matcore._lapack_errors():
        return _iterate(phi, _initial_ray(phi.dim_in, init), tol, max_iter, [])


def _iterate(phi, x, tol, max_iter, steps, restarts=0, prev=(None, None)) -> FixedPointReport:
    """The loop of ``fixed_point_iterate`` from iterate ``x`` with an empty
    memory, after the steps in ``steps`` (which it extends), ``restarts``
    restarts and the last image and residual ``prev`` (real views). The
    report, or the error raised, is ``_close_runs``'s on a stack of one."""
    n = phi.dim_in
    # The ``count``-th difference of g and of f = g - x (Delta g = Delta x +
    # Delta f) since the last restart goes to row count % memory, so the
    # latest min(count, memory) rows are filled.
    memory = _anderson_memory(n)
    dg = np.empty((memory, 2 * n * n))
    df = np.empty_like(dg)
    count = 0
    g_prev, f_prev = prev
    for _ in range(len(steps), max_iter):
        t, w, v = _apply_t(phi, x)
        step = _step_to_inverse(x, w, v)
        steps.append(step)
        g = t / t.trace().real
        if step <= tol:
            x = g
            break
        g_real = g.view(np.float64).reshape(-1)
        f = g_real - x.view(np.float64).reshape(-1)
        x = g
        if f_prev is not None:
            row = count % memory
            np.subtract(g_real, g_prev, out=dg[row])
            np.subtract(f, f_prev, out=df[row])
            count += 1
            stored = min(count, memory)
            dfs = df[:stored]
            ev = None
            try:
                gamma = matcore._solve(dfs @ dfs.T, dfs @ f)
                candidate = (g_real - gamma @ dg[:stored]).view(np.complex128).reshape(n, n)
                if np.isfinite(candidate).all():
                    ev = matcore._eigvalsh(candidate)
            except LinAlgError:
                pass
            if ev is not None and not _below_floor(ev[0], ev[-1]):
                x = candidate
            else:
                restarts += 1
                count = 0
        g_prev, f_prev = g_real, f
    return _unwrap(_close_runs([phi], x[None], [steps], [restarts], tol))


def batch_chunk(n: int, m: int) -> int:
    """States one stacked solve at dims (n, m) holds: ``BATCH_CHUNK``, fewer
    where their realigned maps would pass ``BATCH_CHUNK_BYTES``. Past that
    the stack streams from memory each step and runs no faster than the
    serial loop, which a chunk of one state runs."""
    return max(1, min(BATCH_CHUNK, BATCH_CHUNK_BYTES // (16 * (n * m) ** 2)))


def _failing(w: np.ndarray) -> list:
    """Positions of the spectra in the stack ``w`` (ascending rows) below
    the floor of ``_eig_pd``: tested on the two scalars of a stack of one,
    as ``_eig_pd`` tests them, and vectorized on a larger stack."""
    if len(w) == 1:
        return [0] if _below_floor(w[0, 0], w[0, -1]) else []
    return np.flatnonzero(_below_floor(w[:, 0], w[:, -1])).tolist()


def _drop_singular(keep: list, floors, errors, *arrays) -> list:
    """``keep``, a list of positions, and each of ``arrays`` at the states
    of a stack whose spectra pass the floor of ``_eig_pd``. ``floors`` holds
    (context, w) pairs in the order a single state is checked; each other
    state's error, at its first failing floor, goes to ``errors`` (a dict or
    a list) at its position in ``keep``. Where every state passes, all come
    back as given."""
    bad: list = []
    for context, w in floors:
        for k in _failing(w):
            if k not in bad:
                errors[keep[k]] = _singular(context, w[k])
                bad.append(k)
    if not bad:
        return [keep, *arrays]
    ok = np.ones(len(keep), dtype=bool)
    ok[bad] = False
    return [[p for k, p in enumerate(keep) if k not in bad], *_take(ok, *arrays)]


def _stack(arrays: list) -> np.ndarray:
    """``np.stack(arrays)``; a stack of one is a view of its C-ordered array."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    return np.stack(arrays)


def _apply_t_stack(r: np.ndarray, x: np.ndarray):
    """``_apply_t`` on stacked realigned maps ``r`` (S, n^2, m^2) and
    iterates ``x`` (S, n, n), with the same floors.

    Returns (keep, t, w, v, errors): ``keep`` holds the positions of the
    states that passed both floors, t, w and v are theirs, and ``errors``
    maps each other position to the ``SingularIntermediate`` ``_apply_t``
    raises. A state failing the forward floor is dropped before the adjoint
    step, so its inverse never reaches a stacked ``eigh``.
    """
    errors: dict = {}
    w, v = matcore._eigh(choimod._forward(r, x))
    keep, w, v, r = _drop_singular(list(range(len(x))), [("forward image", w)], errors, w, v, r)
    w, v = matcore._eigh(choimod._adjoint(r, _pd_power(w, v, -1.0)))
    keep, w, v = _drop_singular(keep, [("adjoint image", w)], errors, w, v)
    return keep, _pd_power(w, v, -1.0), w, v, errors


def _per_state(fn, out_shape, *stacks):
    """``fn`` on stacked arguments, and a mask of the states it succeeded
    on. Where the stacked call raises ``LinAlgError``, each state is tried
    alone, so only the states that fail alone fail."""
    try:
        return fn(*stacks), np.ones(out_shape[0], dtype=bool)
    except LinAlgError:
        pass
    out = np.zeros(out_shape)
    ok = np.zeros(out_shape[0], dtype=bool)
    for k in range(out_shape[0]):
        try:
            out[k] = fn(*(s[k] for s in stacks))
            ok[k] = True
        except LinAlgError:
            pass
    return out, ok


def _extrapolate(dg, df, g_real, f, n: int):
    """The Anderson step of ``fixed_point_iterate`` for each running state,
    from its stored differences ``dg`` and ``df`` (S, stored, 2n^2): the
    candidate iterates, and which states' candidates are accepted. Every
    state's Gram system has the shape it has in the serial loop."""
    gram = df @ df.swapaxes(1, 2)
    rhs = df @ f[:, :, None]
    gamma, ok = _per_state(matcore._solve, rhs.shape, gram, rhs)
    cand = g_real - (gamma.swapaxes(1, 2) @ dg)[:, 0]
    cand = cand.view(np.complex128).reshape(-1, n, n)
    ok &= np.isfinite(cand).all(axis=(1, 2))
    if ok.any():
        ev, solved = _per_state(matcore._eigvalsh, (int(ok.sum()), n), cand[ok])
        ok[ok] = solved & ~_below_floor(ev[:, 0], ev[:, -1])
    return cand, ok


def _take(keep, *arrays):
    """Each array's entries at ``keep``; None stays None."""
    return [None if a is None else a[keep] for a in arrays]


def _fixed_point_stack(phis: list, x: np.ndarray, tol: float, max_iter: int) -> list:
    """``fixed_point_iterate`` on maps ``phis`` of one dims from stacked
    trace-one iterates ``x`` (S, n, n), with every numpy call broadcast over
    the states still running. They step in lockstep and share one count of
    stored differences. A state leaves when it converges or fails a floor;
    one whose extrapolant is rejected finishes on the serial ``_iterate``
    from where that loop stands after the restart, so restarts are handled
    there alone. Returns a ``FixedPointReport`` or ``SingularIntermediate``
    per state; one ``_close_runs`` call ends the states that ran to the end."""
    size, n = x.shape[0], x.shape[1]
    memory = _anderson_memory(n)
    width = 2 * n * n
    out: list = [None] * size
    steps: list[list[float]] = [[] for _ in range(size)]
    finished = []  # (position, iterate) of each state that ran to the end
    ids = np.arange(size)
    r = np.stack([phi._realigned for phi in phis])
    dg = np.zeros((size, memory, width))
    df = np.zeros_like(dg)
    count = 0
    g_prev = f_prev = None
    iterations = 0
    while len(ids) and iterations < max_iter:
        iterations += 1
        keep, t, w, v, errors = _apply_t_stack(r, x)
        if errors:
            for k, exc in errors.items():
                out[ids[k]] = exc
            r, x, dg, df, ids, g_prev, f_prev = _take(keep, r, x, dg, df, ids, g_prev, f_prev)
        step = _step_to_inverse(x, w, v)
        for k, value in zip(ids.tolist(), step):
            steps[k].append(value)
        g = t / t.trace(axis1=1, axis2=2).real[:, None, None]
        done = np.array(step) <= tol
        if done.any():
            finished += [(ids[k], g[k]) for k in np.flatnonzero(done)]
            r, x, g, dg, df, ids, g_prev, f_prev = _take(
                ~done, r, x, g, dg, df, ids, g_prev, f_prev
            )
        g_real = g.view(np.float64).reshape(len(ids), width)
        f = g_real - x.view(np.float64).reshape(len(ids), width)
        x = g
        if f_prev is not None:
            dg[:, count % memory] = g_real - g_prev
            df[:, count % memory] = f - f_prev
            count += 1
            stored = min(count, memory)
            x, accepted = _extrapolate(dg[:, :stored], df[:, :stored], g_real, f, n)
            if not accepted.all():
                for k in np.flatnonzero(~accepted).tolist():
                    p, prev = ids[k], (g_real[k], f[k])
                    out[p] = _attempt(_iterate, phis[p], g[k], tol, max_iter, steps[p], 1, prev)
                r, x, g_real, f, dg, df, ids = _take(accepted, r, x, g_real, f, dg, df, ids)
        g_prev, f_prev = g_real, f
    finished += list(zip(ids, x))
    if finished:
        pos, ends = zip(*finished)
        ran = [steps[p] for p in pos]
        closed = _close_runs([phis[p] for p in pos], np.stack(ends), ran, [0] * len(pos), tol)
        for p, item in zip(pos, closed):
            out[p] = item
    return out


def _close_runs(phis: list, iterates: np.ndarray, steps: list, restarts: list, tol: float) -> list:
    """Each run's ``FixedPointReport`` from its final iterate (stacked in
    ``iterates``), steps and restarts: the ray is the iterate's Hermitian
    part, lam is read off one ``_apply_t_stack`` call on all the rays, and
    a run converged if its last step is within ``tol``. A run failing that
    call's floors gets its ``SingularIntermediate`` instead."""
    rays = matcore.hermitian_part(iterates)
    keep, t, _, _, out = _apply_t_stack(_stack([phi._realigned for phi in phis]), rays)
    lams = t.trace(axis1=1, axis2=2).real
    for k, lam in zip(keep, lams.tolist()):
        ran = steps[k]
        out[k] = FixedPointReport(
            phi_ray=rays[k], lam=lam, iterations=len(ran), final_step=ran[-1],
            converged=ran[-1] <= tol, step_history=np.asarray(ran), tol=tol, restarts=restarts[k],
        )
    return [out[k] for k in range(len(phis))]


def _check_batch(phis: list, items: list, what: str) -> None:
    """Raise ``ValueError`` unless ``items`` holds one entry per map of
    ``phis`` and the maps share their dims."""
    if len(items) != len(phis):
        raise ValueError(f"got {len(items)} {what} for {len(phis)} operators")
    if len({(phi.dim_in, phi.dim_out) for phi in phis}) > 1:
        raise ValueError("a batch needs operators of one dims")


def _unwrap(items: list):
    """The one entry of ``items``, raised if it is an error."""
    (item,) = items
    if isinstance(item, QcopulaError):
        raise item
    return item


def _attempt(fn, *args):
    """``fn(*args)``, or the ``QcopulaError`` it raises."""
    try:
        return fn(*args)
    except QcopulaError as exc:
        return exc


def fixed_point_batch(
    phis, tol: float = _DEFAULT_TOL, max_iter: int = _DEFAULT_MAX_ITER, inits=None
) -> list:
    """``fixed_point_iterate`` for many operators of one dims, solved in
    stacked chunks of ``batch_chunk`` states.

    Entry k is, bit for bit, the report ``fixed_point_iterate(phis[k], tol,
    max_iter, inits[k])`` returns, or the ``SingularIntermediate`` it
    raises: one state's failure stays its own. Bad settings and inits,
    mixed dims and unmatched inits raise ``ValueError`` before any work. A
    chunk of one state, such as the lone state of ``copula_of``, runs the
    serial loop, which is faster than a stack of one. A larger chunk steps
    in lockstep until a state converges, fails a floor or restarts; a
    restarting state finishes on the serial loop.
    """
    _check_stopping(tol, max_iter)
    phis = list(phis)
    inits = [None] * len(phis) if inits is None else list(inits)
    _check_batch(phis, inits, "inits")
    if not phis:
        return []
    n, m = phis[0].dim_in, phis[0].dim_out
    size = batch_chunk(n, m)
    out = []
    with matcore._lapack_errors():
        starts = [_initial_ray(n, init) for init in inits]
        for lo in range(0, len(phis), size):
            chunk = phis[lo : lo + size]
            if len(chunk) == 1:
                # fixed_point_iterate, whose reports perfbench's tracer reads,
                # builds this start again from the raw init; handing it the
                # built start would normalize that twice
                out.append(_attempt(fixed_point_iterate, chunk[0], tol, max_iter, inits[lo]))
                continue
            out += _fixed_point_stack(chunk, np.stack(starts[lo : lo + size]), tol, max_iter)
    return out


def _scaling_residuals(r, phi0, phi1, inv0, inv1) -> list:
    """Relative Frobenius residuals (forward, adjoint) of the two defining
    equations for each stacked scaling pair, given inv_k = phi_k^{-1}. Each
    norm is taken on one state's matrix, as a single residual takes it."""
    n, m = phi0.shape[-1], phi1.shape[-1]
    rhs1 = inv1 / m
    rhs2 = phi0 / n
    miss1 = choimod._forward(r, inv0) - rhs1
    miss2 = choimod._adjoint(r, phi1) - rhs2
    norm = np.linalg.norm
    return [
        (float(norm(a) / norm(b)), float(norm(c) / norm(d)))
        for a, b, c, d in zip(miss1, rhs1, miss2, rhs2)
    ]


def scaling_equation_residuals(
    phi: choimod.ChoiOperator, phi0: np.ndarray, phi1: np.ndarray
) -> tuple[float, float]:
    """Relative Frobenius residuals of the two defining equations for the
    scaling pair."""
    phi0 = matcore.as_cmatrix(phi0, phi.dim_in, "phi0")
    phi1 = matcore.as_cmatrix(phi1, phi.dim_out, "phi1")
    with matcore._lapack_errors():
        inv0, inv1 = _inv_pd(phi0, "phi0"), _inv_pd(phi1, "phi1")
    (res,) = _scaling_residuals(
        phi._realigned[None], phi0[None], phi1[None], inv0[None], inv1[None]
    )
    return res


def _run_error(report, prefix: str = ""):
    """The error a run ends in, None for a converged run: the run's own
    error, given in place of its report, or ``NotConverged`` for a run short
    of its tol, its message led by ``prefix``. This is the one place a run
    becomes its error."""
    if isinstance(report, QcopulaError):
        return report
    if report.converged:
        return None
    return NotConverged(
        f"{prefix}fixed point not reached in {report.iterations} iterations "
        f"(last step {report.final_step:.3e} > tol {report.tol:g})",
        report=report,
    )


def _scalers_stack(phis: list, reports: list) -> list:
    """``extract_scalers`` of each (phis[k], reports[k]), maps of one dims:
    entry k is the ``ScalerPair`` or the error of the first check it fails,
    in a single extraction's order: ``_run_error``, the floors of the
    forward image, phi0 and phi1, then the scaling equations. The
    eigendecompositions and the check run on the stack of converged runs."""
    out = [_run_error(report) for report in reports]
    live = [k for k, item in enumerate(out) if item is None]
    if not live:
        return out
    r = _stack([phis[k]._realigned for k in live])
    rays = _stack([reports[k].phi_ray for k in live])
    n, m = phis[0].dim_in, phis[0].dim_out
    w1, v1 = matcore._eigh(choimod._forward(r, rays))
    keep, w1, v1, r = _drop_singular(live, [("forward image", w1)], out, w1, v1, r)
    phi1 = matcore.hermitian_part(_pd_power(w1, v1, -1.0) / m)
    phi0 = matcore.hermitian_part(n * choimod._adjoint(r, phi1))
    w0, v0 = matcore._eigh(phi0)
    wi, vi = matcore._eigh(phi1)
    keep, r, phi0, phi1, w0, v0, w1, v1, wi, vi = _drop_singular(
        keep, [("phi0", w0), ("phi1", wi)], out, r, phi0, phi1, w0, v0, w1, v1, wi, vi
    )
    res = _scaling_residuals(r, phi0, phi1, _pd_power(w0, v0, -1.0), _pd_power(wi, vi, -1.0))
    psi0 = _pd_power(w0, v0, 0.5)
    psi1 = _pd_power(m * w1, v1, -0.5)
    for j, (pos, (res1, res2)) in enumerate(zip(keep, res)):
        bound = max(SCALING_EQ_RTOL, reports[pos].tol)
        if res1 > bound or res2 > bound:
            out[pos] = VerificationFailed(
                f"scaling equations missed {bound:g} relative: "
                f"forward {res1:.3e}, adjoint {res2:.3e}"
            )
        else:
            out[pos] = ScalerPair(phi0[j], phi1[j], psi0[j], psi1[j], res1, res2)
    return out


def extract_scalers(phi, report):
    """Build (phi0, phi1) from the fixed ray and their Hermitian square roots.

    phi1 = (1/m) (Phi(phi_ray))^{-1} and phi0 = n Phi*(phi1); both defining
    equations are re-checked before returning, at the run's stopping
    tolerance or 1e-9 relative, whichever is looser. psi1 reuses the
    eigenpairs phi1 is built from, and psi0 the eigenpairs of phi0 that the
    check inverts phi0 with. A run short of its tol raises ``NotConverged``
    with the message ``copula_of`` gives it, read off the report.

    ``phi`` and ``report`` may also be equal-length sequences of maps of
    one dims and their runs (others raise ``ValueError`` before any work),
    such as the list ``fixed_point_batch`` returns. The result is then a
    list whose entry k is, bit for bit, what the call on (phi[k], report[k])
    returns or the ``QcopulaError`` it raises; a run's own error, in place
    of its report, is raised by a single extraction and is that entry of
    the list. A single extraction is a stack of one.
    """
    single = isinstance(phi, choimod.ChoiOperator)
    phis, reports = ([phi], [report]) if single else (list(phi), list(report))
    _check_batch(phis, reports, "reports")
    with matcore._lapack_errors():
        out = _scalers_stack(phis, reports)
    return _unwrap(out) if single else out


def connection_matrices(scalers: ScalerPair) -> tuple[np.ndarray, np.ndarray]:
    """Invertible (a, b) with (a* o b*) rho (a o b) = chi for the run that
    produced ``scalers``. a* = (psi0^{-1})^T is an entrywise transpose: a
    conjugate one breaks marginal uniformity for complex-valued states.
    The copula's own tail conjugates by a* and b* = psi1 directly. psi0 is
    inverted as a complex matrix by ``matcore._inv``, with numpy.linalg's
    bits and its ``LinAlgError`` for a singular one."""
    with matcore._lapack_errors():
        return np.conj(matcore._inv(scalers.psi0)), scalers.psi1.conj().T


def _out_of_reach(work: states.DensityMatrix, report: FixedPointReport, message: str) -> None:
    """Raise ``NotConverged`` if tol is below eps * cond(work): a stopping
    step under tol can then be rounding noise, so a missed check is no bug."""
    lo, hi = work.eig_range
    if report.tol * lo < ROUNDING_EPS * hi:
        floor = ROUNDING_EPS * hi / lo
        raise NotConverged(
            f"{message}; tol {report.tol:g} is below eps * cond(state) = {floor:.1e}", report=report
        )


def _prepare(rho: states.DensityMatrix, cfg: SolverConfig) -> states.DensityMatrix:
    """The state the solve runs on: ``rho`` mixed with reg_eps * I/(nm)
    under ``cfg.regularize``, else ``rho`` once its eigenvalue floor passes
    the rank check."""
    if cfg.regularize:
        eps = cfg.reg_eps
        mixed = (1.0 - eps) * rho.mat + eps * np.eye(rho.dim) / rho.dim
        return states.DensityMatrix(mixed, rho.dim_a, rho.dim_b, _cholesky=True)
    lo, hi = rho.eig_range
    if lo <= cfg.rank_tol * max(hi, 0.0):
        raise RankDeficient(
            f"state eigenvalue floor {lo:.3e} is below rank_tol={cfg.rank_tol:g} "
            f"of the top eigenvalue; pass regularize=True to proceed on a perturbed state"
        )
    return rho


def _checked_copula(
    work: states.DensityMatrix,
    raw: np.ndarray,
    scalers: ScalerPair,
    report: FixedPointReport,
    cfg: SolverConfig,
) -> CopulaResult:
    """The copula of ``work`` from its trace-one conjugate ``raw``, once
    chi's Cholesky and the marginal check pass."""
    # chi is congruent to the checked state by an invertible matrix, so it is
    # positive definite (Sylvester's law of inertia); Cholesky confirms it.
    chi = states.DensityMatrix(raw, work.dim_a, work.dim_b, _cholesky=True)
    residual = max(states.marginal_residuals(chi))
    marginal_bound = max(cfg.marginal_tol, report.tol)
    if residual > marginal_bound:
        message = f"converged run produced marginal residual {residual:.3e} > {marginal_bound:g}"
        _out_of_reach(work, report, message)
        raise PrecopulaCheckFailed(f"{message}; this indicates a bug")
    return CopulaResult(
        chi=chi,
        scalers=scalers,
        report=report,
        marginal_residual=residual,
        regularized=cfg.regularize,
        reg_eps=cfg.reg_eps if cfg.regularize else 0.0,
    )


def _finish_stack(works: list, phis: list, runs: list, cfg: SolverConfig) -> list:
    """The copulas of states of one dims from their fixed-point runs.

    ``works`` holds the states the solves ran on, ``phis`` their maps and
    ``runs`` each run's report or the ``SingularIntermediate`` it raised.
    Entry k is the ``CopulaResult`` of state k or the error of the first
    check it fails, in this order: the error ``extract_scalers``' sequence
    form, handed every run, gives it (the run's own error, ``NotConverged``
    for a run short of tol, a floor), the scaling equations
    (``VerificationFailed``, or ``NotConverged`` where tol is out of
    rounding's reach), chi's construction and the marginals. The
    eigendecompositions, inverses and the conjugation run on stacks of the
    states still in; chi and the marginals are checked state by state.
    """
    scalers = extract_scalers(phis, runs)
    out = [pair if isinstance(pair, QcopulaError) else None for pair in scalers]
    for k, pair in enumerate(scalers):
        if isinstance(pair, VerificationFailed):
            out[k] = _attempt(_out_of_reach, works[k], runs[k], str(pair)) or pair
    good = [(k, pair) for k, pair in enumerate(scalers) if out[k] is None]
    if not good:
        return out
    live, scalers = zip(*good)
    # chi is (a* o b*) rho (a o b), normalized, with a* = (psi0^{-1})^T and b* = psi1
    inv0 = matcore._inv(_stack([pair.psi0 for pair in scalers]))
    mats, psi1 = _stack([works[k].mat for k in live]), _stack([pair.psi1 for pair in scalers])
    raw = matcore.local_congruence(mats, inv0.swapaxes(-1, -2), psi1)
    raw = matcore.hermitian_part(raw)
    raw /= raw.trace(axis1=1, axis2=2).real[:, None, None]
    for k, chi_raw, pair in zip(live, raw, scalers):
        out[k] = _attempt(_checked_copula, works[k], chi_raw, pair, runs[k], cfg)
    return out


def copula_of(rho: states.DensityMatrix, cfg: SolverConfig | None = None) -> CopulaResult:
    """Compute the uniform-marginal representative connected to ``rho``.

    Requires a full-rank input; with ``cfg.regularize`` the state is first
    mixed with eps * I/(nm) and the result is (explicitly) the copula of
    the perturbed state. Settings out of range raise ``InvalidInput``.
    A missed verification bound raises ``NotConverged`` if tol is below
    eps * cond(state), and otherwise the check's own error, a bug.

    This is ``copula_batch`` of one state, whose fixed point is a chunk of
    one and so runs the serial loop of ``fixed_point_iterate``.
    """
    return _unwrap(copula_batch([rho], cfg))


def copula_batch(rhos, cfg: SolverConfig | None = None) -> list:
    """The copulas of many states of one dims, prepared, solved and
    finished chunk by chunk: each chunk of ``batch_chunk`` prepared states
    gets its maps, one ``fixed_point_batch`` and one ``_finish_stack``, so
    a batch holds one chunk's maps and reports at a time.

    Entry k is, bit for bit, what ``copula_of(rhos[k], cfg)`` returns, or
    the ``QcopulaError`` it raises. Settings out of range raise
    ``InvalidInput`` for the whole batch, and prepared states of mixed dims
    ``ValueError`` before any solve; a refused state's dims do not count.
    """
    cfg = SolverConfig() if cfg is None else cfg
    cfg._check_ranges()
    with matcore._lapack_errors():
        out = [_attempt(_prepare, rho, cfg) for rho in rhos]
        ready = [k for k, item in enumerate(out) if not isinstance(item, QcopulaError)]
        dims = {(out[k].dim_a, out[k].dim_b) for k in ready}
        if len(dims) > 1:
            raise ValueError("a batch needs operators of one dims")
        size = batch_chunk(*dims.pop()) if dims else 1
        for lo in range(0, len(ready), size):
            part = ready[lo : lo + size]
            works = [out[k] for k in part]
            phis = [choimod.choi_from_state(work) for work in works]
            runs = fixed_point_batch(phis, tol=cfg.tol, max_iter=cfg.max_iter)
            for k, result in zip(part, _finish_stack(works, phis, runs, cfg)):
                out[k] = result
    return out


def verify_connection(
    rho: states.DensityMatrix, chi: states.DensityMatrix, a, b
) -> float:
    """Frobenius distance between the trace-normalized conjugate
    (a* o b*) rho (a o b) and ``chi``."""
    k = np.kron(matcore.as_cmatrix(a, rho.dim_a, "a"), matcore.as_cmatrix(b, rho.dim_b, "b"))
    lhs = k.conj().T @ rho.mat @ k
    tr = float(np.trace(lhs).real)
    if tr <= 0.0:
        raise ValueError("conjugated state has non-positive trace")
    return float(np.linalg.norm(lhs / tr - chi.mat))


def copula_invariants(chi: states.DensityMatrix, tol: float = PRECOPULA_TOL) -> np.ndarray:
    """Local-unitary-invariant fingerprint of a precopula: sorted global
    spectrum, Tr(chi^2), Tr(chi^3), and the sorted partial-transpose
    spectrum. Equal fingerprints are necessary (not sufficient) for two
    precopulas to represent the same copula class. Both spectra come from
    one stacked ``matcore._eigvalsh``, in ascending order."""
    if not states.is_precopula(chi, tol):
        raise NotPrecopula(f"marginals are not uniform within {tol:g}")
    with matcore._lapack_errors():
        spectrum, pt = matcore._eigvalsh(np.stack([chi.mat, states.partial_transpose(chi)]))
    sq = chi.mat @ chi.mat
    powers = [float(np.trace(sq).real), float(np.trace(sq @ chi.mat).real)]
    return np.concatenate([spectrum, powers, pt])
