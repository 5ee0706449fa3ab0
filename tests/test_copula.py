"""Tests for the fixed-point solve and the copula construction."""

import numpy as np
import pytest

from qcopula import choi, copula, pmetric, states
from qcopula.errors import (
    InvalidInput,
    NotConverged,
    NotPrecopula,
    PrecopulaCheckFailed,
    RankDeficient,
    SingularIntermediate,
    VerificationFailed,
)


def maximally_mixed(n, m):
    return states.DensityMatrix(np.eye(n * m) / (n * m), n, m)


def product_state(rng, n, m):
    f1 = states.wishart_state_matrix(n, rng)
    f2 = states.wishart_state_matrix(m, rng)
    return states.DensityMatrix(np.kron(f1, f2), n, m), f1, f2


class TestFixedPointIterate:
    def test_maximally_mixed_converges_immediately(self):
        phi = choi.choi_from_state(maximally_mixed(2, 2))
        report = copula.fixed_point_iterate(phi)
        assert report.converged
        assert report.iterations == 1
        assert report.lam == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(report.phi_ray, np.eye(2) / 2, atol=1e-13)

    def test_precopula_fixes_identity_ray(self):
        rho = states.DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]), 2, 2)
        report = copula.fixed_point_iterate(choi.choi_from_state(rho))
        assert report.converged
        np.testing.assert_allclose(report.phi_ray, np.eye(2) / 2, atol=1e-12)

    def test_random_states_converge_fast(self):
        for seed in range(20):
            rho = states.random_full_rank_state(2, 2, seed)
            report = copula.fixed_point_iterate(choi.choi_from_state(rho))
            assert report.converged
            assert report.iterations < 200
            assert abs(report.lam - 1.0) < 1e-8
            assert report.lam > 0

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_lambda_equals_dimension_ratio(self, dims):
        n, m = dims
        for seed in range(10):
            rho = states.random_full_rank_state(n, m, seed)
            report = copula.fixed_point_iterate(choi.choi_from_state(rho))
            assert report.converged
            assert abs(report.lam - n / m) <= 1e-8

    def test_unique_ray_across_initializations(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            phi = choi.choi_from_state(states.random_full_rank_state(2, 2, seed))
            rays = [copula.fixed_point_iterate(phi).phi_ray]
            for _ in range(4):
                init = states.wishart_state_matrix(2, rng)
                rays.append(copula.fixed_point_iterate(phi, init=init).phi_ray)
            for ray in rays[1:]:
                assert pmetric.hilbert_distance(rays[0], ray) <= 1e-8

    def test_steps_shrink_monotonically(self):
        rho = states.random_full_rank_state(2, 2, 77)
        report = copula.fixed_point_iterate(choi.choi_from_state(rho))
        h = report.step_history
        assert len(h) == report.iterations
        assert np.all(np.diff(h[1:]) <= 1e-12)

    def test_not_converged_is_reported(self):
        rho = states.random_full_rank_state(2, 2, 8)
        report = copula.fixed_point_iterate(choi.choi_from_state(rho), max_iter=2)
        assert not report.converged
        assert report.iterations == 2

    def test_singular_intermediate(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = 1.0  # map sends the identity to a singular matrix
        with pytest.raises(SingularIntermediate, match="forward image"):
            copula.fixed_point_iterate(choi.ChoiOperator(mat, 2, 2))

    def test_singular_adjoint_image(self):
        # Phi(I/2) = 1/2 is invertible, but Phi*(2) = diag(2, 0) is not
        phi = choi.ChoiOperator(np.diag([1.0, 0.0]), 2, 1)
        with pytest.raises(SingularIntermediate, match="adjoint image: eigenvalue 0.000e"):
            copula.fixed_point_iterate(phi)

    @pytest.mark.parametrize(
        "lo, hi, below",
        [
            (0.0, 0.0, True),
            (-2.0, -1.0, True),
            (copula.SINGULAR_EIG_RTOL * 3.0, 3.0, True),
            (np.nextafter(copula.SINGULAR_EIG_RTOL * 3.0, 1.0), 3.0, False),
        ],
    )
    def test_singular_floor(self, lo, hi, below):
        # one rule on Python floats (the stacked floors), numpy scalars (a
        # single spectrum) and elementwise on arrays (the stacked Anderson step)
        assert copula._below_floor(float(lo), float(hi)) is below
        assert copula._below_floor(np.float64(lo), np.float64(hi)) == below
        got = copula._below_floor(np.array([lo, 1.0]), np.array([hi, 2.0]))
        assert got.tolist() == [below, False]

    @pytest.mark.parametrize(
        "dims, floor, seed",
        [((2, 2), None, 154), ((3, 3), 1e-3, 0), ((3, 3), 1e-4, 1), ((3, 3), 1e-6, 2)],
    )
    def test_step_history_is_hilbert_distance_of_rays(self, dims, floor, seed):
        # The loop reads its step d(T(x_k), x_k) off the adjoint image's
        # eigenpairs; pin it to the public metric, with T built from the
        # public map applications, including states near the boundary of the
        # cone. x_0 = I/n, and x_k for k >= 1 is the ray of a run cut after k
        # steps: the iterate its next step starts from, which the Anderson
        # extrapolation builds, so it is not the plain image of x_{k-1}.
        n, m = dims
        rho = states.random_full_rank_state(n, m, seed)
        if floor is not None:
            w, v = np.linalg.eigh(rho.mat)
            base = (v * (w - w[0])) @ v.conj().T
            base /= np.trace(base).real
            rho = states.DensityMatrix((1.0 - n * m * floor) * base + floor * np.eye(n * m), n, m)
            assert rho.eig_range[0] == pytest.approx(floor, rel=1e-6)
        phi = choi.choi_from_state(rho)
        report = copula.fixed_point_iterate(phi)
        assert report.converged
        assert report.step_history[-1] <= 1e-12
        assert report.final_step == report.step_history[-1]

        def t_map(x):
            forward = np.linalg.inv(choi.apply(phi, x))
            return np.linalg.inv(choi.apply_adjoint(phi, forward))

        for k in range(report.iterations):
            x = np.eye(n) / n if k == 0 else copula.fixed_point_iterate(phi, max_iter=k).phi_ray
            assert abs(report.step_history[k] - pmetric.hilbert_distance(t_map(x), x)) <= 1e-12

    def test_rejects_indefinite_init(self):
        phi = choi.choi_from_state(maximally_mixed(2, 2))
        with pytest.raises(ValueError):
            copula.fixed_point_iterate(phi, init=np.diag([1.0, -1.0]))

    def test_rejects_bad_tol(self):
        phi = choi.choi_from_state(maximally_mixed(2, 2))
        with pytest.raises(ValueError):
            copula.fixed_point_iterate(phi, tol=0.0)

    @pytest.mark.parametrize(
        "settings",
        [{"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1.0}, {"max_iter": 0}],
        ids=["tol-nan", "tol-inf", "tol-negative", "max-iter-0"],
    )
    def test_rejects_out_of_range_settings(self, settings):
        # NaN passed a bare ``tol <= 0`` check and ran every step unconverged
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, 0))
        with pytest.raises(ValueError, match=next(iter(settings))):
            copula.fixed_point_iterate(phi, **settings)

    def test_rejected_extrapolants_fall_back_to_the_plain_contraction(self, monkeypatch):
        # With every Gram solve failing, each step is the plain T step, so
        # the seed-154 tail of the unaccelerated contraction comes back.
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, 154))

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        report = copula.fixed_point_iterate(phi)
        assert report.converged
        assert report.iterations == 268
        assert report.restarts > 0
        x = np.eye(2, dtype=complex) / 2
        for _ in range(report.iterations):
            t = np.linalg.inv(choi.apply_adjoint(phi, np.linalg.inv(choi.apply(phi, x))))
            x = t / np.trace(t).real
        assert np.abs(report.phi_ray - x).max() <= 1e-12

    def test_restart_clears_the_memory(self, monkeypatch):
        # one rejected Gram solve empties the memory, so the next system
        # holds a single difference again
        phi = choi.choi_from_state(states.random_full_rank_state(3, 3, 0))
        original = np.linalg.solve
        sizes = []

        def third_fails(a, b):
            sizes.append(len(b))
            if len(sizes) == 3:
                raise np.linalg.LinAlgError("singular matrix")
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", third_fails)
        report = copula.fixed_point_iterate(phi)
        assert report.converged
        assert report.restarts == 1
        assert sizes[:5] == [1, 2, 3, 1, 2]

    @pytest.mark.parametrize("seed", [154, 155])
    def test_returned_ray_is_plain_image_of_last_iterate(self, seed):
        # at a loose tol the last iterate, an extrapolant, and its plain
        # image differ visibly; the ray and lam are read off the image
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, seed))
        report = copula.fixed_point_iterate(phi, tol=1e-6)
        assert report.converged
        last = copula.fixed_point_iterate(phi, tol=1e-6, max_iter=report.iterations - 1).phi_ray
        t = np.linalg.inv(choi.apply_adjoint(phi, np.linalg.inv(choi.apply(phi, last))))
        image = t / np.trace(t).real
        assert np.abs(last - image).max() > 1e-9
        assert np.abs(report.phi_ray - image).max() <= 1e-14


class TestExtractScalers:
    def test_maximally_mixed_scalers(self):
        # the trace-one fixed point I/2 gives phi1 = (1/2)(I/4)^{-1} = 2I
        # and phi0 = 2 Phi*(2I) = 2I; both defining equations hold exactly,
        # and both square roots are sqrt(2) I
        phi = choi.choi_from_state(maximally_mixed(2, 2))
        report = copula.fixed_point_iterate(phi)
        scalers = copula.extract_scalers(phi, report)
        np.testing.assert_allclose(scalers.phi0, 2.0 * np.eye(2), atol=1e-11)
        np.testing.assert_allclose(scalers.phi1, 2.0 * np.eye(2), atol=1e-11)
        np.testing.assert_allclose(scalers.psi0, np.sqrt(2.0) * np.eye(2), atol=1e-11)
        np.testing.assert_allclose(scalers.psi1, np.sqrt(2.0) * np.eye(2), atol=1e-11)

    def test_defining_equations_hold(self):
        for seed in range(20):
            rho = states.random_full_rank_state(2, 3, seed)
            phi = choi.choi_from_state(rho)
            report = copula.fixed_point_iterate(phi)
            scalers = copula.extract_scalers(phi, report)
            res1, res2 = copula.scaling_equation_residuals(phi, scalers.phi0, scalers.phi1)
            assert res1 <= 1e-9
            assert res2 <= 1e-9

    def test_scalar_gauge_freedom(self):
        # the defining equations are preserved exactly under a common
        # positive constant on the pair (and only under that)
        rho = states.random_full_rank_state(2, 2, 3)
        phi = choi.choi_from_state(rho)
        scalers = copula.extract_scalers(phi, copula.fixed_point_iterate(phi))
        for c in (0.5, 2.0, 7.3):
            res1, res2 = copula.scaling_equation_residuals(
                phi, c * scalers.phi0, c * scalers.phi1
            )
            assert res1 <= 1e-9
            assert res2 <= 1e-9
        res1, res2 = copula.scaling_equation_residuals(
            phi, 2.0 * scalers.phi0, scalers.phi1 / 2.0
        )
        assert max(res1, res2) > 1e-3

    def test_product_state_scalers_follow_factors(self):
        rng = np.random.default_rng(13)
        rho, f1, f2 = product_state(rng, 2, 2)
        phi = choi.choi_from_state(rho)
        scalers = copula.extract_scalers(phi, copula.fixed_point_iterate(phi))
        # up to the scalar gauge: phi0 on the ray of f1^T, phi1 on f2^{-1}
        assert pmetric.hilbert_distance(scalers.phi0, f1.T) <= 1e-9
        assert pmetric.hilbert_distance(scalers.phi1, np.linalg.inv(f2)) <= 1e-9

    def test_diagonal_state_factors_are_entrywise_square_roots(self):
        # a diagonal state has diagonal scalers, whose square roots are the
        # square roots of their diagonals
        rho = states.DensityMatrix(np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex), 2, 2)
        phi = choi.choi_from_state(rho)
        scalers = copula.extract_scalers(phi, copula.fixed_point_iterate(phi))
        for phi_k, psi_k in ((scalers.phi0, scalers.psi0), (scalers.phi1, scalers.psi1)):
            assert np.abs(phi_k - np.diag(np.diag(phi_k))).max() <= 1e-14
            np.testing.assert_allclose(psi_k, np.diag(np.sqrt(np.diag(phi_k).real)), atol=1e-13)

    def test_factors_reconstruct(self):
        # psi_k is the Hermitian square root of phi_k
        for dims, seed in (((2, 2), 4), ((2, 3), 4), ((2, 3), 5)):
            phi = choi.choi_from_state(states.random_full_rank_state(*dims, seed))
            scalers = copula.extract_scalers(phi, copula.fixed_point_iterate(phi))
            for phi_k, psi_k in ((scalers.phi0, scalers.psi0), (scalers.phi1, scalers.psi1)):
                assert np.linalg.norm(psi_k.conj().T @ psi_k - phi_k) <= 1e-11
                assert np.abs(psi_k - psi_k.conj().T).max() <= 1e-14 * np.abs(psi_k).max()

    def test_requires_converged_report(self):
        rho = states.random_full_rank_state(2, 2, 5)
        phi = choi.choi_from_state(rho)
        report = copula.fixed_point_iterate(phi, max_iter=1)
        with pytest.raises(NotConverged):
            copula.extract_scalers(phi, report)


class TestCopulaOf:
    def test_maximally_mixed_is_its_own_copula(self):
        result = copula.copula_of(maximally_mixed(2, 2))
        np.testing.assert_allclose(result.chi.mat, np.eye(4) / 4, atol=1e-12)
        assert result.marginal_residual <= 1e-12

    def test_precopula_is_fixed(self):
        rho = states.DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]), 2, 2)
        result = copula.copula_of(rho)
        assert np.linalg.norm(result.chi.mat - rho.mat) <= 1e-10

    def test_product_state_maps_to_maximally_mixed(self):
        rng = np.random.default_rng(21)
        for n, m in [(2, 2), (2, 3)]:
            rho, _, _ = product_state(rng, n, m)
            result = copula.copula_of(rho)
            assert np.linalg.norm(result.chi.mat - np.eye(n * m) / (n * m)) <= 1e-10

    def test_random_states_give_precopulas(self):
        for seed in range(20):
            rho = states.random_full_rank_state(2, 2, seed)
            result = copula.copula_of(rho)
            assert result.report.converged
            assert result.marginal_residual <= 1e-10
            assert states.is_precopula(result.chi, 1e-10)

    def test_complex_state_marginals_pin_transpose_convention(self):
        # a conjugate (instead of entrywise) transpose in the conjugation
        # leaves real-entried states uniform but breaks complex ones
        rho = states.random_full_rank_state(2, 2, 101)
        assert np.abs(rho.mat.imag).max() > 1e-3
        result = copula.copula_of(rho)
        assert result.marginal_residual <= 1e-10

    def test_verdict_preserved(self):
        for seed in range(10):
            rho = states.random_full_rank_state(2, 2, seed)
            result = copula.copula_of(rho)
            assert states.ppt_verdict(result.chi).tag == states.ppt_verdict(rho).tag

    def test_idempotence(self):
        for seed in range(5):
            chi = copula.copula_of(states.random_full_rank_state(2, 2, seed)).chi
            again = copula.copula_of(chi)
            assert np.linalg.norm(again.chi.mat - chi.mat) <= 1e-9

    def test_one_dimensional_edge(self):
        result = copula.copula_of(states.DensityMatrix(np.array([[1.0 + 0j]]), 1, 1))
        np.testing.assert_allclose(result.chi.mat, np.array([[1.0]]), atol=1e-14)

    def test_rank_deficient_rejected(self):
        mat = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        rho = states.DensityMatrix(mat, 2, 2)
        with pytest.raises(RankDeficient):
            copula.copula_of(rho)

    def test_regularize_handles_rank_deficiency(self):
        # TestNearBoundary takes epsilon down to the default 1e-8
        mat = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        rho = states.DensityMatrix(mat, 2, 2)
        cfg = copula.SolverConfig(regularize=True, reg_eps=1e-2)
        result = copula.copula_of(rho, cfg)
        assert result.regularized
        assert result.reg_eps == cfg.reg_eps
        assert result.marginal_residual <= cfg.marginal_tol

    def test_not_converged_raises_with_report(self):
        cfg = copula.SolverConfig(max_iter=2)
        with pytest.raises(NotConverged) as err:
            copula.copula_of(states.random_full_rank_state(2, 2, 6), cfg)
        assert err.value.report is not None
        assert not err.value.report.converged

    @pytest.mark.parametrize(
        "settings, field",
        [
            ({"regularize": True, "reg_eps": 1.5}, "reg_eps"),
            ({"max_iter": 0}, "max_iter"),
            ({"tol": 0.0}, "tol"),
            ({"tol": float("nan")}, "tol"),
        ],
        ids=["reg-eps-1.5", "max-iter-0", "tol-0", "tol-nan"],
    )
    def test_out_of_range_settings_are_invalid_input(self, settings, field):
        rho = states.random_full_rank_state(2, 2, 0)
        cfg = copula.SolverConfig(**settings)
        with pytest.raises(InvalidInput, match=f"config: {field} "):
            copula.copula_of(rho, cfg)

    @pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_verification_bounds_follow_tol(self, dims, tol):
        # A loose stopping tolerance loosens the scaling-equation and
        # marginal checks with it instead of failing them.
        cfg = copula.SolverConfig(tol=tol)
        for seed in range(20):
            result = copula.copula_of(states.random_full_rank_state(*dims, seed), cfg)
            assert result.report.tol == tol
            assert max(result.scalers.residual_forward, result.scalers.residual_adjoint) <= tol
            assert result.marginal_residual <= tol

    def test_no_full_size_eigendecomposition(self, monkeypatch):
        # The input's own check ran at construction; copula_of decomposes
        # only n x n and m x m matrices, alone or stacked, and proves chi
        # positive by Cholesky.
        rho = states.random_full_rank_state(2, 3, 0)
        shapes = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def recording(a, *args, _original=original, **kwargs):
                shapes.append(np.shape(a)[-2:])
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        copula.copula_of(rho)
        assert shapes
        assert set(shapes) <= {(2, 2), (3, 3)}

    @pytest.mark.parametrize(
        "owner, target, fake, error",
        [
            # the scaling residuals come as one pair per stacked state
            (copula, "_scaling_residuals", lambda r, *args: [(1.0, 1.0)] * len(r),
             VerificationFailed),
            (states, "marginal_residuals", lambda *args: (1.0, 1.0), PrecopulaCheckFailed),
        ],
        ids=["scaling", "marginals"],
    )
    def test_miss_above_rounding_reach_is_a_bug(self, monkeypatch, owner, target, fake, error):
        # a well-conditioned state at the default tol leaves rounding no
        # room to explain a missed check
        rho = states.random_full_rank_state(2, 2, 0)
        monkeypatch.setattr(owner, target, fake)
        with pytest.raises(error):
            copula.copula_of(rho)

    def test_conjugation_forms_no_kronecker_product(self, monkeypatch):
        # chi is built by matcore.local_congruence on the (n, m, n, m) view
        rho = states.random_full_rank_state(2, 3, 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", forbidden)
        result = copula.copula_of(rho)
        assert result.marginal_residual <= 1e-10


def near_boundary_state(f, seed):
    """(1 - f)|v><v| + f W at (2,2): a random rank-one projector mixed with
    weight f of a Wishart state, so the eigenvalue floor is of order f."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v /= np.linalg.norm(v)
    w = states.wishart_state_matrix(4, rng)
    return states.DensityMatrix((1.0 - f) * np.outer(v, v.conj()) + f * w, 2, 2)


class TestNearBoundary:
    # The contraction ratio of T tends to one as the eigenvalue floor
    # shrinks; the unaccelerated iteration needed thousands of steps at
    # f = 1e-3 and did not converge within 20000 at 1e-5.

    @pytest.mark.parametrize("f", [1e-3, 1e-5, 1e-8])
    def test_mixtures_verify_at_default_settings(self, f):
        cfg = copula.SolverConfig()
        for seed in range(20):
            rho = near_boundary_state(f, seed)
            lo, hi = rho.eig_range
            assert cfg.rank_tol * hi < lo <= 2.0 * f
            result = copula.copula_of(rho, cfg)
            assert result.report.iterations < 100
            assert result.marginal_residual <= cfg.marginal_tol
            a, b = copula.connection_matrices(result.scalers)
            assert copula.verify_connection(rho, result.chi, a, b) <= 1e-10

    @pytest.mark.parametrize("reg_eps", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("rank", [1, 2])
    def test_regularized_rank_deficient_states_verify(self, rank, reg_eps):
        cfg = copula.SolverConfig(regularize=True, reg_eps=reg_eps)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
            mat = g @ g.conj().T
            rho = states.DensityMatrix(mat / np.trace(mat).real, 2, 2)
            with pytest.raises(RankDeficient):
                copula.copula_of(rho)
            result = copula.copula_of(rho, cfg)
            assert result.regularized
            assert result.report.iterations < 100
            assert result.marginal_residual <= cfg.marginal_tol


class TestVerifyConnection:
    def test_trivial_connection(self):
        rho = states.random_full_rank_state(2, 2, 31)
        assert copula.verify_connection(rho, rho, np.eye(2), np.eye(2)) <= 1e-14

    def test_solver_pair_connects(self):
        for seed in range(10):
            rho = states.random_full_rank_state(2, 3, seed)
            result = copula.copula_of(rho)
            a, b = copula.connection_matrices(result.scalers)
            assert copula.verify_connection(rho, result.chi, a, b) <= 1e-10

    def test_wrong_pair_misses(self):
        rng = np.random.default_rng(32)
        rho = states.random_full_rank_state(2, 2, 33)
        result = copula.copula_of(rho)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        assert copula.verify_connection(rho, result.chi, a, b) > 1e-3


class TestCopulaInvariants:
    def test_maximally_mixed_spectrum(self):
        fp = copula.copula_invariants(maximally_mixed(2, 2))
        np.testing.assert_allclose(fp[:4], [0.25, 0.25, 0.25, 0.25], atol=1e-14)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(41)
        chi = copula.copula_of(states.random_full_rank_state(2, 2, 42)).chi
        base = copula.copula_invariants(chi)
        for _ in range(5):
            u = states.random_haar_unitary(2, rng)
            v = states.random_haar_unitary(2, rng)
            w = np.kron(u, v)
            rotated = states.DensityMatrix(w @ chi.mat @ w.conj().T, 2, 2)
            assert np.abs(copula.copula_invariants(rotated) - base).max() <= 1e-10

    def test_distinct_states_have_distinct_fingerprints(self):
        f1 = copula.copula_invariants(copula.copula_of(states.random_full_rank_state(2, 2, 50)).chi)
        f2 = copula.copula_invariants(copula.copula_of(states.random_full_rank_state(2, 2, 51)).chi)
        assert np.abs(f1 - f2).max() > 1e-3

    def test_rejects_non_precopula(self):
        rho = states.DensityMatrix(np.kron(np.diag([0.9, 0.1]), np.eye(2) / 2), 2, 2)
        with pytest.raises(NotPrecopula):
            copula.copula_invariants(rho)


class TestSolverConfig:
    def test_roundtrip(self):
        cfg = copula.SolverConfig(tol=1e-10, max_iter=500, regularize=True)
        again = copula.SolverConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_partial_override(self):
        cfg = copula.SolverConfig.from_dict({"tol": 1e-9}, base=copula.SolverConfig())
        assert cfg.tol == 1e-9
        assert cfg.max_iter == 1000

    def test_rejects_unknown_field(self):
        with pytest.raises(Exception, match="unknown field"):
            copula.SolverConfig.from_dict({"tolerance": 1e-9})
