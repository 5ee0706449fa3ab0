"""The closed-form contraction certificate of a state's map, and the samples
the tests compare it with.

A full-rank trace-one state rho with spectrum in [mu, M] maps every PSD X to
mu Tr(X) I <= Phi(X) <= M Tr(X) I, and the same holds for Phi*, whose Choi
matrix has rho's spectrum. By the Birkhoff-Hopf theorem Phi contracts the
Hilbert metric by at most kappa = (c - 1)/(c + 1), c = M/mu, and, inversion
being an isometry of the metric, T = inv o Phi* o inv o Phi by at most
kappa^2 (Lemmens & Nussbaum, Nonlinear Perron-Frobenius Theory, 2012;
Bushell, Arch. Rational Mech. Anal. 52, 1973). Sampled ratios are lower
bounds of the true contraction, so each must stay at or below its bound.
"""

import numpy as np

from qcopula import choi, pmetric, states

BOUNDARY_WEIGHTS = (1e-2, 1e-4, 1e-6)
# an image's computed eigenvalues may leave [mu Tr, M Tr] by the rounding of
# the map's products and of eigvalsh: a few eps times the image's norm
ROUNDING_MARGIN = 8 * np.finfo(float).eps
PLAIN_STEPS = 6  # from I/n, before the steps shrink to rounding noise


def certified_kappa(rho: states.DensityMatrix) -> float:
    """(c - 1)/(c + 1) with c = M/mu, from the state's eigenvalue range."""
    lo, hi = rho.eig_range
    return (hi - lo) / (hi + lo)


def sample_state_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random state, half the time pushed near the cone's boundary by mixing
    a rank-deficient projector with a small full-rank part: ratios approach
    their supremum near the boundary, and interior samples fall short."""
    base = states.wishart_state_matrix(dim, rng)
    if rng.random() < 0.5:
        r = int(rng.integers(1, dim))
        u = states.random_haar_unitary(dim, rng)
        proj = u[:, :r] @ u[:, :r].conj().T
        w = BOUNDARY_WEIGHTS[int(rng.integers(len(BOUNDARY_WEIGHTS)))]
        return (1.0 - w) * proj / r + w * base
    return base


def near_boundary_state(n, m, rank, floor, seed) -> states.DensityMatrix:
    """A complex-valued (n, m) state rotated by a Haar unitary, whose
    smallest eigenvalue is ``floor`` times its largest: ``rank`` eigenvalues
    in [0.5, 1] and the rest in [floor, 2 floor], so low ranks put the state
    near the boundary of the cone."""
    rng = np.random.default_rng(seed)
    d = n * m
    u = states.random_haar_unitary(d, rng)
    w = np.concatenate([rng.uniform(0.5, 1.0, rank), floor * rng.uniform(1.0, 2.0, d - rank)])
    w[0], w[-1] = 1.0, floor
    mat = (u * (w / w.sum())) @ u.conj().T
    return states.DensityMatrix((mat + mat.conj().T) / 2.0, n, m)


def inv_pd(a: np.ndarray) -> np.ndarray:
    """Inverse of a Hermitian positive-definite matrix, by ``eigh``."""
    w, v = np.linalg.eigh(a)
    return (v / w) @ v.conj().T


def apply_t(phi: choi.ChoiOperator, x: np.ndarray) -> np.ndarray:
    """T(x) = inv(Phi*(inv(Phi(x)))), through the public maps."""
    return inv_pd(choi.apply_adjoint(phi, inv_pd(choi.apply(phi, x))))


def distances(a, b) -> np.ndarray:
    """``pmetric.hilbert_distance`` of two stacks, pair by pair; raises the
    first failing pair's error."""
    out = pmetric.hilbert_distance(np.asarray(a), np.asarray(b))
    for d in out:
        if isinstance(d, Exception):
            raise d
    return np.array(out)


def contraction_ratios(rho: states.DensityMatrix, pairs: int, seed):
    """Sampled contraction ratios of the state's map, as arrays (phi,
    tanh_quarter, t).

    ``phi`` holds d(Phi X, Phi Y)/d(X, Y) and ``tanh_quarter`` holds
    tanh(d(Phi X, Phi Y)/4) over ``pairs`` sampled pairs. ``t`` holds
    d(T X, T Y)/d(X, Y) over the same pairs and over the pairs of
    consecutive iterates of the first ``PLAIN_STEPS`` plain steps
    x -> T(x)/Tr T(x) from I/n, whose step ratios these are.
    """
    phi = choi.choi_from_state(rho)
    rng = np.random.default_rng(seed)
    n = rho.dim_a
    x = np.array([sample_state_matrix(rng, n) for _ in range(2 * pairs)])
    iterates = [np.eye(n, dtype=complex) / n]
    for _ in range(PLAIN_STEPS + 1):
        t = apply_t(phi, iterates[-1])
        iterates.append(t / np.trace(t).real)
    tx = np.array([apply_t(phi, a) for a in x])
    d_in, d_t, steps = np.split(
        distances(
            np.concatenate([x[:pairs], tx[:pairs], iterates[:-1]]),
            np.concatenate([x[pairs:], tx[pairs:], iterates[1:]]),
        ),
        [pairs, 2 * pairs],
    )
    fx = np.array([choi.apply(phi, a) for a in x])
    d_phi = distances(fx[:pairs], fx[pairs:])
    t_ratios = np.concatenate([d_t / d_in, steps[1:] / steps[:-1]])
    return d_phi / d_in, np.tanh(d_phi / 4.0), t_ratios


def obeys_positivity_certificate(rho: states.DensityMatrix, trials: int, seed) -> bool:
    """Whether mu Tr(X) <= eig(Phi(X)) <= M Tr(X) for ``trials`` sampled PSD
    X of random rank, and the same for Phi* on as many Y, with [mu, M] the
    state's eigenvalue range, up to ``ROUNDING_MARGIN`` times the image's
    norm."""
    phi = choi.choi_from_state(rho)
    lo, hi = rho.eig_range
    rng = np.random.default_rng(seed)
    for dim, fn in ((rho.dim_a, choi.apply), (rho.dim_b, choi.apply_adjoint)):
        for _ in range(trials):
            g = rng.standard_normal((dim, int(rng.integers(1, dim + 1))))
            g = g + 1j * rng.standard_normal(g.shape)
            x = g @ g.conj().T
            w = np.linalg.eigvalsh(fn(phi, x))
            tr, margin = np.trace(x).real, ROUNDING_MARGIN * np.abs(w).max()
            if w[0] < lo * tr - margin or w[-1] > hi * tr + margin:
                return False
    return True
