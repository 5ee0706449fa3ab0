"""Tests for the Choi-matrix map representation and its transforms."""

import dataclasses

import numpy as np
import pytest

from qcopula import choi, matcore, states
from qcopula.errors import ShapeMismatch
from oracles import adjoint, apply_via_partial_trace, choi_from_map
from spectral_certificate import obeys_positivity_certificate


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_choi(rng, n, m):
    """Generic (non-Hermitian) Choi matrix for map-level identities."""
    return choi.ChoiOperator(random_complex(rng, n * m, n * m), n, m)


def sandwiched(phi, a, b):
    """Choi operator of X -> B Phi(A X A*) B*, which is (A^T o B) choi
    (A^T o B)* with an entrywise transpose: the conjugation ``copula_of``
    applies to a state."""
    return choi.ChoiOperator(matcore.local_congruence(phi.choi, a.T, b), phi.dim_in, phi.dim_out)


def bell_state():
    mat = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            mat[i * 2 + i, j * 2 + j] = 0.5
    return states.DensityMatrix(mat, 2, 2)


class TestChoiFromState:
    def test_maximally_mixed_blocks(self):
        phi = choi.choi_from_state(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        for i in range(2):
            for j in range(2):
                expected = np.eye(2) / 4 if i == j else np.zeros((2, 2))
                np.testing.assert_array_equal(phi.choi.reshape(2, 2, 2, 2)[i, :, j, :], expected)

    def test_choi_is_read_only(self):
        # The map's products use a matrix stored at construction, so the
        # Choi matrix must not change afterwards.
        phi = choi.choi_from_state(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            phi.choi = np.zeros((4, 4))
        with pytest.raises(ValueError):
            phi.choi[0, 0] = 1.0

    def test_shares_the_state_matrix(self):
        rho = states.random_full_rank_state(2, 3, 0)
        phi = choi.choi_from_state(rho)
        assert phi.choi is rho.mat

    def test_writable_input_is_copied(self):
        src = np.eye(4, dtype=complex) / 4
        phi = choi.ChoiOperator(src, 2, 2)
        assert not np.shares_memory(phi.choi, src)
        src[0, 0] = 1.0  # the caller's array stays writable and separate
        assert phi.choi[0, 0] == 0.25

    def test_maximally_mixed_is_trace_map(self):
        phi = choi.choi_from_state(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        rng = np.random.default_rng(0)
        x = random_complex(rng, 2, 2)
        np.testing.assert_allclose(choi.apply(phi, x), np.trace(x) * np.eye(2) / 4, atol=1e-14)

    def test_maximally_entangled_is_scaled_identity_map(self):
        # blocks of the Bell state are E_ij / 2, so the map is X -> X/2
        phi = choi.choi_from_state(bell_state())
        rng = np.random.default_rng(1)
        x = random_complex(rng, 2, 2)
        np.testing.assert_allclose(choi.apply(phi, x), x / 2, atol=1e-14)

    def test_product_state_map(self):
        rng = np.random.default_rng(2)
        f1 = states.wishart_state_matrix(2, rng)
        f2 = states.wishart_state_matrix(3, rng)
        rho = states.DensityMatrix(np.kron(f1, f2), 2, 3)
        phi = choi.choi_from_state(rho)
        x = random_complex(rng, 2, 2)
        np.testing.assert_allclose(
            choi.apply(phi, x), np.trace(x @ f1.T) * f2, atol=1e-13
        )


class TestApply:
    def test_blockwise_vs_partial_trace_route(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            phi = random_choi(rng, 3, 2)
            x = random_complex(rng, 3, 3)
            a = choi.apply(phi, x)
            b = apply_via_partial_trace(phi, x)
            assert np.abs(a - b).max() <= 1e-13 * max(np.abs(a).max(), 1.0)

    def test_zero_input(self):
        phi = random_choi(np.random.default_rng(4), 2, 2)
        np.testing.assert_array_equal(choi.apply(phi, np.zeros((2, 2))), np.zeros((2, 2)))

    def test_shape_mismatch(self):
        phi = random_choi(np.random.default_rng(5), 2, 3)
        with pytest.raises(ShapeMismatch):
            choi.apply(phi, np.eye(3))

    @pytest.mark.parametrize("size", [0, 1, 3])
    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_kernels_on_stacks_match_single_maps(self, dims, size):
        # the solver's stacked steps apply Phi and Phi* to stacks of states
        # through the kernels that apply and apply_adjoint call one at a time
        n, m = dims
        rng = np.random.default_rng(17 + size)
        phis = [random_choi(rng, n, m) for _ in range(size)]
        r = np.array([phi._realigned for phi in phis], complex).reshape(size, n * n, m * m)
        x = np.array([random_complex(rng, n, n) for _ in phis], complex).reshape(size, n, n)
        y = np.array([random_complex(rng, m, m) for _ in phis], complex).reshape(size, m, m)
        forward, backward = choi._forward(r, x), choi._adjoint(r, y)
        assert forward.shape == (size, m, m) and backward.shape == (size, n, n)
        for k, phi in enumerate(phis):
            np.testing.assert_array_equal(forward[k], choi.apply(phi, x[k]))
            np.testing.assert_array_equal(backward[k], choi.apply_adjoint(phi, y[k]))


class TestMarginalIdentities:
    def test_forward_identity_gives_first_partial_trace(self):
        for seed in range(200):
            rho = states.random_full_rank_state(2, 3, seed)
            phi = choi.choi_from_state(rho)
            gap = np.linalg.norm(choi.apply(phi, np.eye(2)) - states.partial_trace_first(rho))
            assert gap <= 1e-12

    def test_adjoint_identity_gives_second_partial_trace_transposed(self):
        # the Hilbert-Schmidt adjoint returns the entrywise conjugate of
        # the second marginal; on the identity input both marginal
        # conditions below are exact
        for seed in range(200):
            rho = states.random_full_rank_state(2, 3, seed)
            phi = choi.choi_from_state(rho)
            adj = choi.apply_adjoint(phi, np.eye(3))
            gap = np.linalg.norm(adj - states.partial_trace_second(rho).T)
            assert gap <= 1e-12

    def test_adjoint_zero(self):
        phi = random_choi(np.random.default_rng(6), 2, 2)
        np.testing.assert_array_equal(
            choi.apply_adjoint(phi, np.zeros((2, 2))), np.zeros((2, 2))
        )


class TestAdjoint:
    def test_defining_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            phi = random_choi(rng, 2, 3)
            x = random_complex(rng, 2, 2)
            y = random_complex(rng, 3, 3)
            lhs = np.vdot(choi.apply(phi, x), y)
            rhs = np.vdot(x, choi.apply_adjoint(phi, y))
            scale = np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(phi.choi)
            assert abs(lhs - rhs) <= 1e-12 * scale

    def test_adjoint_operator_matches_apply_adjoint(self):
        rng = np.random.default_rng(8)
        phi = random_choi(rng, 2, 3)
        phi_star = adjoint(phi)
        assert (phi_star.dim_in, phi_star.dim_out) == (3, 2)
        y = random_complex(rng, 3, 3)
        np.testing.assert_allclose(
            choi.apply(phi_star, y), choi.apply_adjoint(phi, y), atol=1e-13
        )

    def test_adjoint_strict_positivity_follows(self):
        # mu Tr(X) I <= Phi(X) <= M Tr(X) I for PSD X, with [mu, M] the
        # spectrum of rho; Phi*'s Choi matrix has rho's spectrum, so Phi*
        # obeys the same bounds. Both are checked with a rounding margin of
        # 8 eps ||Phi(X)|| (spectral_certificate.ROUNDING_MARGIN).
        for seed in range(10):
            rho = states.random_full_rank_state(2, 3, seed)
            assert obeys_positivity_certificate(rho, trials=50, seed=seed)


class TestCompositionTransforms:
    """The four multiplication-composition identities at the Choi level,
    each checked against direct assembly of the composed map."""

    def test_left_multiplication_outside(self):
        rng = np.random.default_rng(9)
        for _ in range(250):
            phi = random_choi(rng, 2, 3)
            b = random_complex(rng, 3, 3)
            direct = choi_from_map(lambda x: b @ choi.apply(phi, x), 2, 3)
            expected = np.kron(np.eye(2), b) @ phi.choi
            assert np.abs(direct.choi - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_right_multiplication_outside(self):
        rng = np.random.default_rng(10)
        for _ in range(250):
            phi = random_choi(rng, 2, 3)
            b = random_complex(rng, 3, 3)
            direct = choi_from_map(lambda x: choi.apply(phi, x) @ b, 2, 3)
            expected = phi.choi @ np.kron(np.eye(2), b)
            assert np.abs(direct.choi - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_left_multiplication_inside(self):
        # the inner factor appears entrywise-transposed on the first leg
        rng = np.random.default_rng(11)
        for _ in range(250):
            phi = random_choi(rng, 2, 3)
            a = random_complex(rng, 2, 2)
            direct = choi_from_map(lambda x: choi.apply(phi, a @ x), 2, 3)
            expected = np.kron(a.T, np.eye(3)) @ phi.choi
            assert np.abs(direct.choi - expected).max() <= 1e-11 * np.abs(expected).max()

    def test_right_multiplication_inside(self):
        rng = np.random.default_rng(12)
        for _ in range(250):
            phi = random_choi(rng, 2, 3)
            a = random_complex(rng, 2, 2)
            direct = choi_from_map(lambda x: choi.apply(phi, x @ a), 2, 3)
            expected = phi.choi @ np.kron(a.T, np.eye(3))
            assert np.abs(direct.choi - expected).max() <= 1e-11 * np.abs(expected).max()


class TestSandwichTransform:
    def test_identity_transform(self):
        phi = random_choi(np.random.default_rng(13), 2, 3)
        out = sandwiched(phi, np.eye(2), np.eye(3))
        np.testing.assert_allclose(out.choi, phi.choi)

    def test_unitary_on_output_side(self):
        rng = np.random.default_rng(14)
        phi = random_choi(rng, 2, 2)
        u = states.random_haar_unitary(2, rng)
        out = sandwiched(phi, np.eye(2), u)
        w = np.kron(np.eye(2), u)
        np.testing.assert_allclose(out.choi, w @ phi.choi @ w.conj().T, atol=1e-13)

    def test_diagonal_scaling_by_hand(self):
        phi = choi.choi_from_state(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        a = np.diag([2.0, 3.0])
        b = np.diag([5.0, 7.0])
        out = sandwiched(phi, a, b)
        scales = np.array([2.0, 2.0, 3.0, 3.0]) * np.array([5.0, 7.0, 5.0, 7.0])
        np.testing.assert_allclose(out.choi, np.diag(scales**2) / 4)

    def test_matches_direct_application(self):
        # both orders of unequal dims pin the index order of the conjugation
        rng = np.random.default_rng(15)
        for n, m in [(2, 3), (3, 2)] * 100:
            phi = random_choi(rng, n, m)
            a = random_complex(rng, n, n)
            b = random_complex(rng, m, m)
            out = sandwiched(phi, a, b)
            x = random_complex(rng, n, n)
            direct = b @ choi.apply(phi, a @ x @ a.conj().T) @ b.conj().T
            viachoi = choi.apply(out, x)
            assert np.abs(direct - viachoi).max() <= 1e-11 * max(np.abs(direct).max(), 1.0)
