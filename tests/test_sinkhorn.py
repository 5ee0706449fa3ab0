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


def rescaling_gaps(a, pair, d, e):
    """How far the scaling (d1', d2') of D a E, for positive diagonals d
    and e, is from ``pair``, the scaling (d1, d2) of ``a``: the largest
    entry gap of the two doubly stochastic matrices, and the relative gaps
    of D d1' from c d1 and of E d2' from d2/c, with c fixed by the first
    entries."""
    other = sinkhorn.sinkhorn_scale(d[:, None] * np.asarray(a) * e[None, :])
    x, y = d * other.d1, e * other.d2
    c = x[0] / pair.d1[0]
    return (
        float(np.abs(other.scaled - pair.scaled).max()),
        float(np.abs(x - c * pair.d1).max() / np.abs(x).max()),
        float(np.abs(y - pair.d2 / c).max() / np.abs(y).max()),
    )


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

    def test_rejects_empty_matrix(self):
        with pytest.raises(InvalidInput, match="at least one entry"):
            sinkhorn.sinkhorn_scale(np.zeros((0, 0)))

    def test_rejects_nan_entry(self):
        with pytest.raises(InvalidInput, match="finite"):
            sinkhorn.sinkhorn_scale(np.array([[1.0, np.nan], [1.0, 1.0]]))

    def test_not_converged(self):
        with pytest.raises(NotConverged):
            sinkhorn.sinkhorn_scale(np.array([[1.0, 2.0], [3.0, 4.0]]), max_iter=1)

    def test_overflowing_sums_do_not_converge(self):
        # finite, strictly positive entries whose sums overflow: a NaN
        # deviation must not pass for convergence, and no warning is raised
        with pytest.raises(NotConverged, match="sums are not finite after 0 iterations"):
            sinkhorn.sinkhorn_scale(np.full((2, 2), 1e308))


class TestVerifyUniqueness:
    # (D d1', E d2') scales a too, so by uniqueness it is (d1, d2) up to
    # the gauge; scaling D a E from ones is scaling a from the start E
    def test_unique_across_initializations(self):
        rng = np.random.default_rng(4)
        columns = np.random.default_rng(5)
        for _ in range(100):
            a = rng.uniform(0.1, 3.0, (4, 4))
            pair = sinkhorn.sinkhorn_scale(a)
            gaps = rescaling_gaps(a, pair, rng.uniform(0.2, 5.0, 4), columns.uniform(0.2, 5.0, 4))
            assert max(gaps) <= 1e-10
