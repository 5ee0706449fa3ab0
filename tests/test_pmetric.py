"""Tests for the projective metric and its diameter/contraction estimators."""

import math

import numpy as np
import pytest

from qcopula import choi, pmetric, states
from qcopula.errors import NotHermitian, NotPSD, ShapeMismatch, ZeroMatrix


def random_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.05 * np.eye(n)


def trace_to_identity_choi(n, m):
    """Choi matrix of X -> Tr(X) I_m."""
    return choi.choi_from_map(lambda x: np.trace(x) * np.eye(m), n, m)


def identity_map_choi(n):
    return choi.choi_from_map(lambda x: x, n, n)


class TestHilbertDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        a = random_pd(rng, 3)
        assert pmetric.hilbert_distance(a, a) <= 1e-13

    def test_scale_invariance_is_zero_on_same_ray(self):
        rng = np.random.default_rng(1)
        a = random_pd(rng, 3)
        assert pmetric.hilbert_distance(a, 3.7 * a) <= 1e-12

    def test_diagonal_log_ratio(self):
        d = pmetric.hilbert_distance(np.diag([2.0, 1.0]), np.eye(2))
        assert d == pytest.approx(math.log(2.0), abs=1e-14)

    def test_mismatched_supports_are_infinitely_far(self):
        e11 = np.diag([1.0, 0.0])
        e22 = np.diag([0.0, 1.0])
        assert math.isinf(pmetric.hilbert_distance(e11, e22))

    def test_common_singular_support_is_finite(self):
        p = np.diag([2.0, 0.0, 0.0])
        q = np.diag([0.5, 0.0, 0.0])
        assert pmetric.hilbert_distance(p, q) <= 1e-13

    def test_rank_mismatch_is_infinite(self):
        a = np.diag([1.0, 1.0, 0.0])
        b = np.eye(3)
        assert math.isinf(pmetric.hilbert_distance(a, b))

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = random_pd(rng, 4), random_pd(rng, 4)
            assert abs(
                pmetric.hilbert_distance(a, b) - pmetric.hilbert_distance(b, a)
            ) <= 1e-10

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b, c = (random_pd(rng, 3) for _ in range(3))
            dac = pmetric.hilbert_distance(a, c)
            assert dac <= (
                pmetric.hilbert_distance(a, b) + pmetric.hilbert_distance(b, c) + 1e-10
            )

    def test_scale_invariance_random_factors(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            a, b = random_pd(rng, 3), random_pd(rng, 3)
            c = float(rng.uniform(1e-3, 1e3))
            assert abs(
                pmetric.hilbert_distance(c * a, b) - pmetric.hilbert_distance(a, b)
            ) <= 1e-12

    def test_inversion_isometry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = random_pd(rng, 3), random_pd(rng, 3)
            gap = abs(
                pmetric.hilbert_distance(np.linalg.inv(a), np.linalg.inv(b))
                - pmetric.hilbert_distance(a, b)
            )
            assert gap <= 1e-10

    def test_positive_maps_do_not_expand(self):
        rng = np.random.default_rng(6)
        for seed in range(20):
            phi = choi.choi_from_state(states.random_full_rank_state(2, 2, seed))
            a, b = random_pd(rng, 2), random_pd(rng, 2)
            d_in = pmetric.hilbert_distance(a, b)
            d_out = pmetric.hilbert_distance(
                choi.apply(phi, a), choi.apply(phi, b)
            )
            assert d_out <= d_in + 1e-10

    def test_rejects_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            pmetric.hilbert_distance(np.zeros((2, 2)), np.eye(2))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            pmetric.hilbert_distance(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            pmetric.hilbert_distance(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            pmetric.hilbert_distance(np.eye(2), np.eye(3))


class TestEstimators:
    def test_trace_map_diameter_zero(self):
        phi = trace_to_identity_choi(2, 2)
        assert pmetric.estimate_diameter(phi, samples=40, seed=0) <= 1e-12

    def test_maximally_mixed_state_map_diameter_zero(self):
        phi = choi.choi_from_state(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        assert pmetric.estimate_diameter(phi, samples=40, seed=1) <= 1e-12

    def test_generic_map_diameter_positive_finite(self):
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, 7))
        d = pmetric.estimate_diameter(phi, samples=60, seed=2)
        assert 0.0 < d < math.inf

    def test_identity_map_contraction_is_one(self):
        est = pmetric.estimate_contraction(identity_map_choi(2), samples=60, seed=3)
        assert est == pytest.approx(1.0, abs=1e-8)

    def test_trace_map_contraction_zero(self):
        est = pmetric.estimate_contraction(trace_to_identity_choi(2, 2), samples=60, seed=4)
        assert est <= 1e-12

    def test_full_rank_state_map_contracts(self):
        for seed in range(5):
            phi = choi.choi_from_state(states.random_full_rank_state(2, 2, seed))
            est = pmetric.estimate_contraction(phi, samples=60, seed=seed)
            assert est < 1.0

    def test_contraction_consistent_with_diameter_bound(self):
        # both quantities are lower bounds; tanh of a quarter diameter can
        # never leave [0, 1)
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, 9))
        diam = pmetric.estimate_diameter(phi, samples=60, seed=5)
        ratio = pmetric.estimate_contraction(phi, samples=60, seed=6)
        assert ratio < 1.0
        assert 0.0 <= math.tanh(diam / 4.0) < 1.0

    def test_determinism(self):
        phi = choi.choi_from_state(states.random_full_rank_state(2, 2, 11))
        a = pmetric.estimate_diameter(phi, samples=30, seed=12)
        b = pmetric.estimate_diameter(phi, samples=30, seed=12)
        assert a == b

    def test_rejects_too_few_samples(self):
        phi = trace_to_identity_choi(2, 2)
        with pytest.raises(ValueError):
            pmetric.estimate_diameter(phi, samples=1, seed=0)
        with pytest.raises(ValueError):
            pmetric.estimate_contraction(phi, samples=1, seed=0)
