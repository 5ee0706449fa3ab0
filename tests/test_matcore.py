"""Tests for the dense complex-matrix kernel."""

import numpy as np
import pytest

from qcopula import matcore
from qcopula.errors import (
    NonFinite,
    NotHermitian,
    NotPositiveDefinite,
    ShapeMismatch,
)


def random_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2


def random_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


class TestEigHermitian:
    def test_identity(self):
        spectrum = matcore.eig_hermitian(np.eye(2))
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 1.0])
        np.testing.assert_allclose(spectrum.eigenvectors, np.eye(2))

    def test_diagonal_sorted_ascending(self):
        spectrum = matcore.eig_hermitian(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 3.0])

    def test_pauli_x(self):
        # characteristic polynomial of [[0,1],[1,0]] is l^2 - 1
        spectrum = matcore.eig_hermitian(np.array([[0, 1], [1, 0]], dtype=complex))
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_reconstruction_many_random(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            a = random_hermitian(rng, n)
            spectrum = matcore.eig_hermitian(a)
            rebuilt = (spectrum.eigenvectors * spectrum.eigenvalues) @ spectrum.eigenvectors.conj().T
            assert np.linalg.norm(rebuilt - a) <= 1e-11 * max(np.linalg.norm(a), 1e-30)
            gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
            assert np.abs(gram - np.eye(n)).max() <= 1e-12

    def test_phase_convention_deterministic(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(rng, 4)
        v1 = matcore.eig_hermitian(a).eigenvectors
        v2 = matcore.eig_hermitian(a).eigenvectors
        np.testing.assert_array_equal(v1, v2)
        for j in range(4):
            first = v1[np.flatnonzero(np.abs(v1[:, j]) > 1e-12)[0], j]
            assert first.real > 0
            assert abs(first.imag) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            matcore.eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_finite(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFinite):
                matcore.eig_hermitian(np.array([[bad, 0], [0, 1]]))

    def test_rejects_non_square(self):
        with pytest.raises(ShapeMismatch):
            matcore.eig_hermitian(np.ones((2, 3)))


class TestCholeskyLikeFactor:
    def test_identity(self):
        np.testing.assert_allclose(matcore.cholesky_like_factor(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        psi = matcore.cholesky_like_factor(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(psi, np.diag([2.0, 3.0]), atol=1e-14)

    @pytest.mark.parametrize("method", ["sqrt", "cholesky"])
    def test_reconstruction_random(self, method):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_pd(rng, 3)
            psi = matcore.cholesky_like_factor(a, method)
            err = np.linalg.norm(psi.conj().T @ psi - a) / np.linalg.norm(a)
            assert err < 1e-12

    def test_sqrt_factor_is_hermitian(self):
        rng = np.random.default_rng(8)
        a = random_pd(rng, 4)
        psi = matcore.cholesky_like_factor(a, "sqrt")
        assert matcore.hermitian_defect(psi) <= 1e-12 * matcore.max_abs(psi)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            matcore.cholesky_like_factor(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefinite):
            matcore.cholesky_like_factor(np.diag([1.0, 0.0]))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            matcore.cholesky_like_factor(np.eye(2), "qr")


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(matcore.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        np.testing.assert_array_equal(
            matcore.kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])),
            np.diag([3.0, 4.0, 6.0, 8.0]).astype(complex),
        )

    def test_matrix_unit_block_placement(self):
        e12 = np.zeros((2, 2))
        e12[0, 1] = 1.0
        out = matcore.kron(e12, np.eye(2))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 2:4] = np.eye(2)
        np.testing.assert_array_equal(out, expected)

    def test_mixed_product_property(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            a, c = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2))
            b, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(2))
            lhs = matcore.kron(a, b) @ matcore.kron(c, d)
            rhs = matcore.kron(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * max(np.linalg.norm(lhs), 1.0)
