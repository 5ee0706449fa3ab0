"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[acceptance NN] name: PASS/FAIL` line (visible with
`pytest -s`). Expensive batches are shared through module-scoped fixtures.
"""

import math
import time

import numpy as np
import pytest

from qcopula import choi, cli, copula, pmetric, sinkhorn, states
from oracles import choi_from_map
from spectral_certificate import certified_kappa, contraction_ratios

BATCH_DIMS = ((2, 2), (2, 3), (3, 3))
BATCH_COUNT = 200


def report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def batch_runs():
    """200 random full-rank states per dims, solved once and reused. The
    batch returns, bit for bit, what copula_of does (tests/test_batch.py)."""
    runs = {}
    for n, m in BATCH_DIMS:
        rhos = [states.random_full_rank_state(n, m, seed) for seed in range(BATCH_COUNT)]
        runs[n, m] = list(zip(rhos, copula.copula_batch(rhos)))
    return runs


@pytest.fixture(scope="module")
def separability_runs():
    """100 constructed-separable plus 100 NPT-filtered 2x2 states."""
    cases = []
    for seed in range(100):
        rho = states.random_separable_state(2, 2, terms=8, seed=seed)
        cases.append((rho, copula.copula_of(rho)))
    found = 0
    rng = np.random.default_rng(10_000)
    while found < 100:
        rho = states.random_full_rank_state(2, 2, rng)
        if states.ppt_verdict(rho).tag != states.ENTANGLED:
            continue
        cases.append((rho, copula.copula_of(rho)))
        found += 1
    return cases


def test_criterion_01_precopula_construction(batch_runs):
    worst = 0.0
    total = 0
    for dims, cases in batch_runs.items():
        for _, result in cases:
            assert result.report.converged
            worst = max(worst, result.marginal_residual)
            total += 1
    ok = total == BATCH_COUNT * len(BATCH_DIMS) and worst <= 1e-10
    report(1, "precopula construction", ok,
           f"({total} runs, max marginal residual {worst:.2e} <= 1e-10)")


def test_criterion_02_lambda_is_dimension_ratio(batch_runs):
    # the lambda suite's rule, at the tol the batch was solved with
    tol = copula.SolverConfig().tol
    cases = [
        cli._lambda_case(result.report, dims, tol)
        for dims, runs in batch_runs.items()
        for _, result in runs
    ]
    worst = max(c["lambda_error"] for c in cases)
    report(2, "lambda = n/m", all(c["pass"] for c in cases),
           f"({len(cases)} runs, max |lambda - n/m| {worst:.2e})")


def test_criterion_03_scaling_equation_residuals(batch_runs):
    worst = 0.0
    for dims, cases in batch_runs.items():
        for rho, result in cases:
            phi = choi.choi_from_state(rho)
            res1, res2 = copula.scaling_equation_residuals(
                phi, result.scalers.phi0, result.scalers.phi1
            )
            worst = max(worst, res1, res2)
    report(3, "scaling equation residuals", worst <= 1e-9,
           f"(max relative residual {worst:.2e} <= 1e-9)")


def test_criterion_04_unique_fixed_ray():
    # the uniqueness suite's rule on each state's ray gaps
    cases = []
    rng = np.random.default_rng(777)
    for seed in range(50):
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, seed))
        rays = []
        for _ in range(5):
            init = states.wishart_state_matrix(2, rng)
            rep = copula.fixed_point_iterate(phi, init=init)
            assert rep.converged
            rays.append(rep.phi_ray)
        gaps = [pmetric.hilbert_distance(rays[0], ray) for ray in rays[1:]]
        cases.append(cli._ray_gap_case(gaps))
    worst = max(c["max_ray_gap"] for c in cases)
    report(4, "unique fixed ray across initializations", all(c["pass"] for c in cases),
           f"(50 states x 5 inits, max ray gap {worst:.2e})")


def test_criterion_05_connection_verification(batch_runs):
    worst = 0.0
    for dims, cases in batch_runs.items():
        for rho, result in cases:
            a, b = copula.connection_matrices(result.scalers)
            worst = max(worst, copula.verify_connection(rho, result.chi, a, b))
    report(5, "connection verification", worst <= 1e-10,
           f"(max residual {worst:.2e} <= 1e-10)")


def test_criterion_06_separability_preservation(separability_runs):
    # the preserve-separability suite's rule on each state
    cases = [cli._separability_case(rho, result) for rho, result in separability_runs]
    agree = sum(c["pass"] for c in cases)
    total = len(cases)
    report(6, "separability preservation", agree == total and total >= 200,
           f"({agree}/{total} verdict agreements)")


def test_criterion_07_convergence_speed():
    # seeds 0..199 at each batch dims, including the (2,2) seed 154 that the
    # unaccelerated contraction needed 268 iterations for; the Anderson
    # safeguard never fires on these states
    details = []
    ok = True
    start = time.perf_counter()
    for n, m in BATCH_DIMS:
        iterations = []
        restarts = 0
        for seed in range(BATCH_COUNT):
            rho = states.random_full_rank_state(n, m, seed)
            result = copula.copula_of(rho, copula.SolverConfig(tol=1e-12))
            iterations.append(result.report.iterations)
            restarts += result.report.restarts
        iterations.sort()
        worst = iterations[-1]
        median = iterations[len(iterations) // 2]
        ok &= worst < 50 and median < 20 and restarts == 0
        details.append(f"({n},{m}) max {worst} median {median} restarts {restarts}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(7, "convergence speed", ok,
           f"({'; '.join(details)}; bounds max < 50, median < 20, no restarts; "
           f"wall {elapsed:.1f}s < 60s)")


def test_criterion_08_metric_axioms():
    # the metric-axioms suite's rule on each case's seven distances
    rng = np.random.default_rng(888)
    cases = []
    count = 500
    for _ in range(count):
        a = states.wishart_state_matrix(4, rng)
        b = states.wishart_state_matrix(4, rng)
        c = states.wishart_state_matrix(4, rng)
        factor = float(rng.uniform(1e-3, 1e3))
        u = states.random_haar_unitary(4, rng)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        p2 = np.outer(u[:, 1], u[:, 1].conj())
        pairs = ((a, b), (b, a), (a, c), (b, c), (factor * a, b),
                 (np.linalg.inv(a), np.linalg.inv(b)), (p1, p2))
        distances = [pmetric.hilbert_distance(x, y) for x, y in pairs]
        cases.append(cli._metric_axioms_case(distances))

    def worst(key):
        return max(case[key] for case in cases)

    infinite_hits = sum(c["support_mismatch_infinite"] for c in cases)
    report(8, "projective metric axioms", all(c["pass"] for c in cases),
           f"(sym {worst('symmetry_gap'):.1e}, triangle {worst('triangle_excess'):.1e}, "
           f"scale {worst('scale_gap'):.1e}, inversion {worst('inversion_gap'):.1e}, "
           f"{infinite_hits}/{count} infinite)")


def test_criterion_09_choi_layer_identities():
    rng = np.random.default_rng(999)

    def rand(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    adj_worst = 0.0
    for _ in range(1000):
        phi = choi.ChoiOperator(rand(6, 6), 2, 3)
        x, y = rand(2, 2), rand(3, 3)
        gap = abs(
            np.vdot(choi.apply(phi, x), y) - np.vdot(x, choi.apply_adjoint(phi, y))
        )
        norm = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(phi.choi)
        adj_worst = max(adj_worst, gap / norm)

    comp_worst = 0.0
    for _ in range(1000):
        phi = choi.ChoiOperator(rand(6, 6), 2, 3)
        a, b = rand(2, 2), rand(3, 3)
        pairs = (
            (choi_from_map(lambda x: b @ choi.apply(phi, x), 2, 3).choi,
             np.kron(np.eye(2), b) @ phi.choi),
            (choi_from_map(lambda x: choi.apply(phi, x) @ b, 2, 3).choi,
             phi.choi @ np.kron(np.eye(2), b)),
            (choi_from_map(lambda x: choi.apply(phi, a @ x), 2, 3).choi,
             np.kron(a.T, np.eye(3)) @ phi.choi),
            (choi_from_map(lambda x: choi.apply(phi, x @ a), 2, 3).choi,
             phi.choi @ np.kron(a.T, np.eye(3))),
        )
        for direct, product in pairs:
            comp_worst = max(
                comp_worst, np.abs(direct - product).max() / np.abs(product).max()
            )

    marg_worst = 0.0
    for seed in range(200):
        rho = states.random_full_rank_state(2, 3, seed)
        phi = choi.choi_from_state(rho)
        marg_worst = max(
            marg_worst,
            float(np.linalg.norm(choi.apply(phi, np.eye(2)) - states.partial_trace_first(rho))),
            float(np.linalg.norm(
                choi.apply_adjoint(phi, np.eye(3)) - states.partial_trace_second(rho).T
            )),
        )
    ok = adj_worst <= 1e-11 and comp_worst <= 1e-11 and marg_worst <= 1e-12
    report(9, "Choi layer identities", ok,
           f"(adjoint {adj_worst:.1e} <= 1e-11, composition {comp_worst:.1e} <= 1e-11, "
           f"marginals {marg_worst:.1e} <= 1e-12)")


def test_criterion_10_contraction_diagnostics():
    # kappa(Phi) is certified from the spectrum; sampled ratios are lower
    # bounds of the true contraction and may not pass it (or kappa^2 for T)
    ok = True
    kappas, worst = [], np.zeros(3)
    for dims in ((2, 2), (2, 3)):
        for seed in range(6):
            rho = states.random_full_rank_state(*dims, seed)
            kappa = certified_kappa(rho)
            phi, tanh_quarter, t = contraction_ratios(rho, pairs=40, seed=seed)
            bounds = (kappa, kappa, kappa**2)
            samples = (phi.max(), tanh_quarter.max(), t.max())
            ok &= kappa < 1.0 and all(s <= b for s, b in zip(samples, bounds))
            kappas.append(kappa)
            worst = np.maximum(worst, np.divide(samples, bounds))
    report(10, "certified contraction below one", ok,
           f"(kappa = (c-1)/(c+1) from the spectrum, max {max(kappas):.4f} < 1; "
           f"largest sampled over certified: Phi ratio {worst[0]:.3f}, "
           f"tanh(d/4) {worst[1]:.3f}, T ratio {worst[2]:.3f} of kappa^2; "
           f"{len(kappas)} states)")


def test_criterion_11_classical_sinkhorn():
    rng = np.random.default_rng(1234)
    dev_worst = 0.0
    unique = True
    for _ in range(100):
        a = rng.uniform(0.1, 3.0, (4, 4))
        p1 = sinkhorn.sinkhorn_scale(a, tol=1e-12)
        dev_worst = max(
            dev_worst,
            np.abs(p1.scaled.sum(axis=0) - 1).max(),
            np.abs(p1.scaled.sum(axis=1) - 1).max(),
        )
        p2 = sinkhorn.sinkhorn_scale(a, tol=1e-12, d2_init=rng.uniform(0.2, 5.0, 4))
        unique &= sinkhorn.verify_uniqueness(a, p1, p2, tol=1e-10)
    two = np.array([[1.0, 2.0], [3.0, 4.0]])
    # closed form: cross ratio fixes the doubly stochastic 2x2 exactly
    r = math.sqrt(two[0, 0] * two[1, 1] / (two[0, 1] * two[1, 0]))
    s = r / (1.0 + r)
    closed = np.array([[s, 1.0 - s], [1.0 - s, s]])
    closed_gap = np.abs(sinkhorn.sinkhorn_scale(two, tol=1e-14).scaled - closed).max()
    ok = dev_worst <= 1e-12 and unique and closed_gap <= 1e-12
    report(11, "classical doubly stochastic scaling", ok,
           f"(max sum deviation {dev_worst:.1e}, uniqueness {unique}, "
           f"2x2 closed form gap {closed_gap:.1e})")


def test_criterion_12_diagonal_state_reduction():
    # a diagonal 2x2-by-2x2 state reduces to classical scaling of its
    # reshaped diagonal; trace one forces chi_diag = S/2 for doubly
    # stochastic S (row sums of the reshaped diagonal must be 1/2)
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(50):
        d = rng.uniform(0.1, 1.0, 4)
        d /= d.sum()
        rho = states.DensityMatrix(np.diag(d.astype(complex)), 2, 2)
        result = copula.copula_of(rho)
        pair = sinkhorn.sinkhorn_scale(d.reshape(2, 2), tol=1e-14)
        chi_diag = np.diag(result.chi.mat).real.reshape(2, 2)
        worst = max(worst, np.abs(chi_diag - pair.scaled / 2.0).max())
        offdiag = result.chi.mat - np.diag(np.diag(result.chi.mat))
        worst = max(worst, np.abs(offdiag).max())
    report(12, "diagonal-state reduction to classical scaling", worst <= 1e-9,
           f"(max gap to S/2 {worst:.2e} <= 1e-9)")


def cholesky_copula(rho, scalers):
    """The copula conjugated by the Cholesky factors psi_k = L_k* of the
    run's scaling matrices (phi_k = L_k L_k*), by the Kronecker formula."""
    psi0 = np.linalg.cholesky(scalers.phi0).conj().T
    psi1 = np.linalg.cholesky(scalers.phi1).conj().T
    left = np.kron(np.linalg.inv(psi0).T, psi1)
    raw = left @ rho.mat @ left.conj().T
    raw = (raw + raw.conj().T) / 2.0
    return states.DensityMatrix(raw / np.trace(raw).real, rho.dim_a, rho.dim_b)


def test_criterion_13_factorization_independence():
    # any factor with psi* psi = phi gives the same copula up to local
    # unitaries; the solver's Hermitian square roots and Cholesky factors
    # must give the same fingerprint
    worst = 0.0
    for seed in range(50):
        rho = states.random_full_rank_state(2, 2, seed)
        result = copula.copula_of(rho)
        chi_chol = cholesky_copula(rho, result.scalers)
        gap = np.abs(
            copula.copula_invariants(result.chi) - copula.copula_invariants(chi_chol)
        ).max()
        worst = max(worst, gap)
    report(13, "factorization independence", worst <= 1e-9,
           f"(max fingerprint gap {worst:.2e} <= 1e-9)")
