"""Tests for classical doubly-stochastic scaling."""

import math

import numpy as np
import pytest

from qcopula import sinkhorn
from qcopula.errors import InvalidInput, NonPositiveEntry, NotConverged


def closed_form_2x2(a):
    """Direct solution of the 2x2 doubly-stochastic scaling: the result is
    [[s, 1-s], [1-s, s]] and diagonal scalings preserve the cross ratio
    (a11 a22)/(a12 a21) = s^2/(1-s)^2."""
    r = math.sqrt(a[0, 0] * a[1, 1] / (a[0, 1] * a[1, 0]))
    s = r / (1.0 + r)
    return np.array([[s, 1.0 - s], [1.0 - s, s]])


class TestSinkhornScale:
    def test_all_ones_becomes_uniform(self):
        pair = sinkhorn.sinkhorn_scale(np.ones((2, 2)))
        np.testing.assert_allclose(pair.scaled, np.full((2, 2), 0.5), atol=1e-12)

    def test_already_doubly_stochastic_is_fixed(self):
        a = np.array([[0.3, 0.7], [0.7, 0.3]])
        pair = sinkhorn.sinkhorn_scale(a)
        np.testing.assert_array_equal(pair.scaled, a)
        np.testing.assert_array_equal(pair.d1, np.ones(2))
        np.testing.assert_array_equal(pair.d2, np.ones(2))
        assert pair.iterations == 0

    def test_two_by_two_against_closed_form(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        pair = sinkhorn.sinkhorn_scale(a, tol=1e-14)
        np.testing.assert_allclose(pair.scaled, closed_form_2x2(a), atol=1e-12)

    def test_scaled_reconstructs_from_diagonals(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(0.5, 2.0, (4, 4))
        pair = sinkhorn.sinkhorn_scale(a)
        np.testing.assert_allclose(
            pair.scaled, pair.d1[:, None] * a * pair.d2[None, :], atol=1e-15
        )

    def test_row_and_column_sums(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0, (4, 4))
            pair = sinkhorn.sinkhorn_scale(a, tol=1e-12)
            assert np.abs(pair.scaled.sum(axis=0) - 1).max() <= 1e-12
            assert np.abs(pair.scaled.sum(axis=1) - 1).max() <= 1e-12

    def test_gauge_pinned(self):
        rng = np.random.default_rng(2)
        pair = sinkhorn.sinkhorn_scale(rng.uniform(0.5, 2.0, (3, 3)))
        assert pair.d1[0] == 1.0

    def test_rejects_zero_entry(self):
        with pytest.raises(NonPositiveEntry):
            sinkhorn.sinkhorn_scale(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            sinkhorn.sinkhorn_scale(np.ones((2, 3)))

    def test_rejects_nan_entry(self):
        with pytest.raises(InvalidInput, match="finite"):
            sinkhorn.sinkhorn_scale(np.array([[1.0, np.nan], [1.0, 1.0]]))

    def test_rejects_negative_d2_init(self):
        with pytest.raises(InvalidInput, match="d2_init"):
            sinkhorn.sinkhorn_scale(np.ones((2, 2)), d2_init=[1.0, -1.0])

    def test_not_converged(self):
        with pytest.raises(NotConverged):
            sinkhorn.sinkhorn_scale(np.array([[1.0, 2.0], [3.0, 4.0]]), max_iter=1)

    def test_overflowing_sums_do_not_converge(self):
        # finite, strictly positive entries whose sums overflow: a NaN
        # deviation must not pass for convergence, and no warning is raised
        with pytest.raises(NotConverged, match="sums are not finite after 0 iterations"):
            sinkhorn.sinkhorn_scale(np.full((2, 2), 1e308))


class TestVerifyUniqueness:
    def test_same_pair(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        pair = sinkhorn.sinkhorn_scale(a)
        assert sinkhorn.verify_uniqueness(a, pair, pair, tol=1e-14)

    def test_rescaled_pair_is_equivalent(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        pair = sinkhorn.sinkhorn_scale(a)
        rescaled = sinkhorn.ScalingPair(
            2.0 * pair.d1, pair.d2 / 2.0, pair.scaled, pair.iterations, pair.max_deviation
        )
        assert sinkhorn.verify_uniqueness(a, pair, rescaled, tol=1e-12)

    def test_pairs_from_different_matrices_differ(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 2.0, (4, 4))
        b = rng.uniform(0.5, 2.0, (4, 4))
        pa = sinkhorn.sinkhorn_scale(a)
        pb = sinkhorn.sinkhorn_scale(b)
        assert not sinkhorn.verify_uniqueness(a, pa, pb, tol=1e-10)

    def test_unique_across_initializations(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0, (4, 4))
            p1 = sinkhorn.sinkhorn_scale(a)
            p2 = sinkhorn.sinkhorn_scale(a, d2_init=rng.uniform(0.2, 5.0, 4))
            assert sinkhorn.verify_uniqueness(a, p1, p2, tol=1e-10)
