"""Tests for the projective metric."""

import math

import numpy as np
import pytest

from qcopula import choi, cli, copula, matcore, pmetric, states
from qcopula.errors import NotHermitian, NotPSD, QcopulaError, ShapeMismatch, ZeroMatrix


def random_pd(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g @ g.conj().T + 0.05 * np.eye(n)


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


def serial_distance(a, b):
    """The one-pair formula the stacked metric must reproduce bit for bit:
    eigh of each matrix, the support check, whitening on b's support."""
    ha = matcore.hermitian_part(np.asarray(a, dtype=np.complex128))
    hb = matcore.hermitian_part(np.asarray(b, dtype=np.complex128))
    wa, va = np.linalg.eigh(ha)
    wb, vb = np.linalg.eigh(hb)
    keep_a = wa > pmetric.RANK_TOL * wa[-1]
    keep_b = wb > pmetric.RANK_TOL * wb[-1]
    if np.count_nonzero(keep_a) != np.count_nonzero(keep_b):
        return math.inf
    if not keep_b.all():
        pa = va[:, keep_a] @ va[:, keep_a].conj().T
        pb = vb[:, keep_b] @ vb[:, keep_b].conj().T
        if float(np.linalg.norm(pa - pb, 2)) > pmetric.SUPPORT_TOL:
            return math.inf
    basis = vb[:, keep_b]
    s = 1.0 / np.sqrt(wb[keep_b])
    w = np.linalg.eigvalsh(
        matcore.hermitian_part((basis.conj().T @ ha @ basis) * s[None, :] * s[:, None])
    )
    return math.inf if w[0] <= 0.0 else float(np.log(w[-1] / w[0]))


def outcome(fn, *args):
    try:
        return fn(*args)
    except QcopulaError as exc:
        return exc


def same_outcome(got, want):
    if isinstance(want, QcopulaError):
        return type(got) is type(want) and str(got) == str(want)
    return np.float64(got).tobytes() == np.float64(want).tobytes()


class TestStackedDistances:
    """The stacked metric against one pair at a time, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1000])
    def test_metric_axioms_inputs_match_single_pairs(self, seed):
        suite = cli._suite_metric_axioms(seed, 200, (3, 3), copula.SolverConfig())
        cases = [suite.sample(i) for i in range(200)]
        for (a, b, c, factor, p1, p2), got in zip(cases, suite.solve(cases)):
            pairs = [
                (a, b), (b, a), (a, c), (b, c), (factor * a, b),
                (np.linalg.inv(a), np.linalg.inv(b)), (p1, p2),
            ]
            assert len(got) == len(pairs)
            for d, (x, y) in zip(got, pairs):
                assert same_outcome(d, pmetric.hilbert_distance(x, y))
                assert same_outcome(d, serial_distance(x, y))

    def test_mixed_stack_keeps_each_outcome(self):
        rng = np.random.default_rng(8)
        u = states.random_haar_unitary(3, rng)
        proj = u[:, :2] @ u[:, :2].conj().T
        good = [(random_pd(rng, 3), random_pd(rng, 3)) for _ in range(3)]
        a_pd, b_pd = random_pd(rng, 3), random_pd(rng, 3)
        pairs = [
            good[0],
            (np.zeros((3, 3)), b_pd),  # zero matrix
            (a_pd, np.diag([1.0, -1.0, 1.0])),  # not PSD
            (np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), b_pd),  # not Hermitian
            good[1],
            (proj @ a_pd @ proj, b_pd),  # rank 2 against rank 3
            (proj @ a_pd @ proj, proj @ b_pd @ proj),  # common singular support
            (np.outer(u[:, 0], u[:, 0].conj()), np.outer(u[:, 1], u[:, 1].conj())),
            good[2],
        ]
        got = pmetric.hilbert_distance(*(np.array(side) for side in zip(*pairs)))
        kinds = [ZeroMatrix, NotPSD, NotHermitian]
        assert [type(d) for d in got if isinstance(d, QcopulaError)] == kinds
        assert [math.isinf(d) for d in (got[5], got[6], got[7])] == [True, False, True]
        for d, (x, y) in zip(got, pairs):
            assert same_outcome(d, outcome(pmetric.hilbert_distance, x, y))
            if not isinstance(d, QcopulaError):
                assert same_outcome(d, serial_distance(x, y))

    def test_stacks_of_two_sizes(self):
        # a's checks come first, then the shapes, pair by pair
        rng = np.random.default_rng(9)
        a = np.array([random_pd(rng, 3), np.zeros((3, 3)), random_pd(rng, 3)])
        b = np.array([random_pd(rng, 2) for _ in range(3)])
        got = pmetric.hilbert_distance(a, b)
        assert [type(d) for d in got] == [ShapeMismatch, ZeroMatrix, ShapeMismatch]
        for d, x, y in zip(got, a, b):
            assert same_outcome(d, outcome(pmetric.hilbert_distance, x, y))

    def test_stack_needs_a_stack_of_as_many(self):
        a = np.array([np.eye(2), np.eye(2)])
        with pytest.raises(ValueError, match="as many"):
            pmetric.hilbert_distance(a, np.eye(2))
        with pytest.raises(ValueError, match="as many"):
            pmetric.hilbert_distance(a, a[:1])

    def test_empty_stacks(self):
        assert pmetric.hilbert_distance(np.empty((0, 3, 3)), np.empty((0, 3, 3))) == []

