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


def random_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.1 * np.eye(n)


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

    @pytest.mark.parametrize(
        "a, error",
        [
            (np.array([[0, 1], [0, 0]], dtype=complex), NotHermitian),
            (np.array([[np.nan, 0], [0, 1]]), NonFinite),
            (np.array([[np.inf, 0], [0, 1]]), NonFinite),
            (np.ones((2, 3)), ShapeMismatch),
        ],
        ids=["non-hermitian", "nan", "inf", "non-square"],
    )
    def test_rejects_invalid_input(self, a, error):
        with pytest.raises(error):
            matcore.cholesky_like_factor(a)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            matcore.cholesky_like_factor(np.eye(2), "qr")
