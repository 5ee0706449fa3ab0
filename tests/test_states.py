"""Tests for the bipartite state type, marginals, sampling and PPT."""

import numpy as np
import pytest

from qcopula import matcore, states
from qcopula.errors import DegenerateSample, InvalidInput, NotHermitian, NotPSD, QcopulaError


def bell_state():
    mat = np.zeros((4, 4), dtype=complex)
    for i in (0, 1):
        for j in (0, 1):
            mat[i * 2 + i, j * 2 + j] = 0.5
    return states.DensityMatrix(mat, 2, 2)


def product_state(rng, n, m):
    f1 = states.wishart_state_matrix(n, rng)
    f2 = states.wishart_state_matrix(m, rng)
    return states.DensityMatrix(np.kron(f1, f2), n, m), f1, f2


# (factor of the bound, accepted, through the private Cholesky route)
EDGE_CASES = [
    pytest.param(0.9, True, False, id="0.9-True"),
    pytest.param(1.1, False, False, id="1.1-False"),
    pytest.param(0.9, True, True, id="0.9-True-cholesky"),
    pytest.param(1.1, False, True, id="1.1-False-cholesky"),
]


class TestDensityMatrix:
    def test_valid_construction(self):
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        assert rho.dim == 4

    def test_rejects_wrong_dims(self):
        with pytest.raises(InvalidInput, match="dims"):
            states.DensityMatrix(np.eye(4) / 4, 2, 3)

    def test_rejects_non_positive_dims(self):
        with pytest.raises(InvalidInput, match="factor dimensions must be positive"):
            states.DensityMatrix(np.eye(4) / 4, 0, 4)

    @pytest.mark.parametrize(
        "dims", [(2.7, 2), ("2", 2), (True, 4), (2, 2.0)], ids=["float", "str", "bool", "float-b"]
    )
    def test_rejects_dims_that_are_not_integers(self, dims):
        message = "dims: factor dimensions must be positive integers"
        with pytest.raises(InvalidInput, match=f"^{message}$"):
            states.DensityMatrix(np.eye(4) / 4, *dims)

    def test_accepts_numpy_integer_dims(self):
        rho = states.DensityMatrix(np.eye(4) / 4, np.int64(2), np.int32(2))
        assert (rho.dim_a, rho.dim_b) == (2, 2)
        assert type(rho.dim_a) is int and type(rho.dim_b) is int

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.2
        with pytest.raises(NotHermitian):
            states.DensityMatrix(mat, 2, 2)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidInput, match="trace"):
            states.DensityMatrix(np.eye(4) / 5, 2, 2)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            states.DensityMatrix(np.diag([0.7, 0.5, -0.1, -0.1]), 2, 2)

    # Tolerance edges: 1e-10 relative Hermitian defect, 1e-10 trace,
    # eigenvalue floor -1e-10. Each pair sits at 0.9x and 1.1x the bound.
    # The private Cholesky route (states the solver builds) gives the same
    # verdicts: below the floor edge its factorization fails and the
    # eigenvalue floor decides.
    @pytest.mark.parametrize("factor, ok, cholesky", EDGE_CASES)
    def test_hermitian_edge(self, factor, ok, cholesky):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = factor * 1e-10 * 0.25  # defect against scale 0.25
        if ok:
            states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)
        else:
            with pytest.raises(NotHermitian):
                states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)

    @pytest.mark.parametrize("factor, ok, cholesky", EDGE_CASES)
    def test_trace_edge(self, factor, ok, cholesky):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 0] += factor * 1e-10
        if ok:
            states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)
        else:
            with pytest.raises(InvalidInput, match="trace"):
                states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)

    @pytest.mark.parametrize("factor, ok, cholesky", EDGE_CASES)
    def test_eigenvalue_floor_edge(self, factor, ok, cholesky):
        e = factor * 1e-10
        mat = np.diag([0.5, 0.3, 0.2 + e, -e]).astype(complex)
        if ok:
            states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)
        else:
            with pytest.raises(NotPSD):
                states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)

    def test_records_eigenvalue_range(self):
        for seed, (n, m) in enumerate([(1, 1), (2, 2), (2, 3), (4, 4)]):
            rho = states.random_full_rank_state(n, m, seed)
            w = np.linalg.eigvalsh(rho.mat)
            assert vars(rho)["eig_range"] == (w[0], w[-1])
            # Through the Cholesky route the range is computed on first read.
            # A defect well inside the Hermitian tolerance shows that it is
            # the spectrum of the Hermitian part.
            mat = rho.mat + 1e-13 * np.triu(np.ones((n * m, n * m)), 1)
            lazy = states.DensityMatrix(mat, n, m, _cholesky=True)
            assert "eig_range" not in vars(lazy)
            w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            assert lazy.eig_range == (w[0], w[-1])

    def test_cholesky_route_falls_back_on_rank_deficiency(self):
        rho = states.DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]), 2, 2, _cholesky=True)
        assert vars(rho)["eig_range"] == (0.0, 0.5)

    @pytest.mark.parametrize("cholesky", [False, True])
    def test_defect_inside_tolerance_is_stored_exactly_hermitian(self, cholesky):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.5e-10 * 0.25  # half the Hermitian bound at scale 0.25
        rho = states.DensityMatrix(mat, 2, 2, _cholesky=cholesky)
        assert matcore.hermitian_defect(rho.mat) == 0.0
        np.testing.assert_array_equal(rho.mat, (mat + mat.conj().T) / 2)

    def test_exactly_hermitian_input_keeps_its_bits(self):
        for seed, (n, m) in enumerate([(2, 2), (2, 3), (3, 3)]):
            mat = states.wishart_state_matrix(n * m, seed)
            rho = states.DensityMatrix(mat, n, m)
            assert rho.mat.tobytes() == mat.tobytes()

    def test_matrix_is_read_only_copy(self):
        src = np.eye(4, dtype=complex) / 4
        rho = states.DensityMatrix(src, 2, 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 1.0
        src[0, 0] = 1.0  # the caller's array stays writable and separate
        assert rho.mat[0, 0] == 0.25


class TestPartialTraces:
    def test_product_state_marginals(self):
        rng = np.random.default_rng(21)
        for n, m in [(2, 2), (2, 3), (3, 2)]:
            rho, f1, f2 = product_state(rng, n, m)
            assert np.linalg.norm(states.partial_trace_first(rho) - f2) < 1e-12
            assert np.linalg.norm(states.partial_trace_second(rho) - f1) < 1e-12

    def test_bell_state_marginals(self):
        rho = bell_state()
        np.testing.assert_allclose(states.partial_trace_first(rho), np.eye(2) / 2, atol=1e-15)
        np.testing.assert_allclose(states.partial_trace_second(rho), np.eye(2) / 2, atol=1e-15)

    def test_maximally_mixed(self):
        rho = states.DensityMatrix(np.eye(4) / 4, 2, 2)
        np.testing.assert_allclose(states.partial_trace_first(rho), np.eye(2) / 2)
        np.testing.assert_allclose(states.partial_trace_second(rho), np.eye(2) / 2)

    def test_trace_preservation(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            rho = states.random_full_rank_state(2, 3, rng)
            assert abs(np.trace(states.partial_trace_first(rho)) - 1) < 1e-12
            assert abs(np.trace(states.partial_trace_second(rho)) - 1) < 1e-12


class TestIsPrecopula:
    def test_maximally_mixed_is_precopula(self):
        assert states.is_precopula(states.DensityMatrix(np.eye(4) / 4, 2, 2), 1e-12)

    def test_classical_diagonal_precopula(self):
        rho = states.DensityMatrix(np.diag([0.4, 0.1, 0.1, 0.4]), 2, 2)
        assert states.is_precopula(rho, 1e-12)

    def test_skewed_product_is_not(self):
        rho = states.DensityMatrix(np.kron(np.diag([0.9, 0.1]), np.eye(2) / 2), 2, 2)
        assert not states.is_precopula(rho, 1e-10)


class TestRandomStates:
    def test_full_rank_properties(self):
        rho = states.random_full_rank_state(2, 2, 1)
        assert abs(np.trace(rho.mat) - 1) < 1e-14
        assert np.linalg.eigvalsh(rho.mat)[0] > 0

    def test_one_by_one(self):
        rho = states.random_full_rank_state(1, 1, 123)
        np.testing.assert_array_equal(rho.mat, np.array([[1.0 + 0j]]))

    def test_determinism(self):
        a = states.random_full_rank_state(2, 3, 99)
        b = states.random_full_rank_state(2, 3, 99)
        np.testing.assert_array_equal(a.mat, b.mat)

    def test_separable_is_ppt(self):
        for seed in range(8):
            rho = states.random_separable_state(2, 2, terms=8, seed=seed)
            assert states.ppt_verdict(rho).min_pt_eigenvalue >= -1e-12

    def test_separable_single_term_is_product(self):
        rho = states.random_separable_state(2, 2, terms=1, seed=4)
        # a product state reshapes to a rank-one n^2 x m^2 matrix
        r = rho.tensor_view().transpose(0, 2, 1, 3).reshape(4, 4)
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[1] < 1e-12 * sv[0]

    def test_separable_determinism(self):
        a = states.random_separable_state(2, 2, terms=6, seed=5)
        b = states.random_separable_state(2, 2, terms=6, seed=5)
        np.testing.assert_array_equal(a.mat, b.mat)

    @staticmethod
    def separable_oracle(n, m, terms, rng):
        """The sampler term by term: two ``wishart_state_matrix`` draws and
        one ``np.kron`` a term, summed in order."""
        acc = np.zeros((n * m, n * m), dtype=np.complex128)
        for p in rng.dirichlet(np.ones(terms)):
            a = states.wishart_state_matrix(n, rng)
            acc += p * np.kron(a, states.wishart_state_matrix(m, rng))
        acc = matcore.hermitian_part(acc)
        return matcore.hermitian_part(acc / np.trace(acc).real)

    @pytest.mark.parametrize(
        "dims, terms",
        [
            ((2, 3), 12), ((3, 2), 6), ((2, 2), 8), ((1, 1), 2), ((1, 3), 6),
            ((3, 3), 18), ((4, 4), 32), ((2, 3), 1), ((3, 3), 1),
        ],
    )
    def test_separable_matches_kron_oracle(self, monkeypatch, dims, terms):
        # the sampler's product terms are those of np.kron, bit for bit,
        # without calling it, drawn from one call per attempt
        n, m = dims
        want = [
            self.separable_oracle(n, m, terms, np.random.default_rng(seed)) for seed in range(50)
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", forbidden)
        for seed, mat in enumerate(want):
            got = states.random_separable_state(n, m, terms, seed).mat
            assert got.tobytes() == mat.tobytes()

    @pytest.mark.parametrize("dims, terms", [((2, 3), 12), ((3, 3), 1)])
    def test_separable_leaves_a_generator_where_the_oracle_does(self, dims, terms):
        n, m = dims
        mine, theirs = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            got = states.random_separable_state(n, m, terms, mine).mat
            assert got.tobytes() == self.separable_oracle(n, m, terms, theirs).tobytes()
            assert mine.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "sample",
        [
            lambda: states.random_full_rank_state(2, 2, 0),
            lambda: states.random_separable_state(2, 2, 8, 0),
        ],
        ids=["full-rank", "separable"],
    )
    def test_samplers_give_up_after_their_attempts(self, monkeypatch, sample):
        # no draw clears a floor of the largest possible eigenvalue
        monkeypatch.setattr(states, "FULL_RANK_FLOOR", 1.0)
        with pytest.raises(DegenerateSample, match=r"\(2, 2\) state in 10 attempts$"):
            sample()

    def test_separable_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            states.random_separable_state(2, 2, terms=0, seed=0)

    def test_haar_unitary_is_unitary(self):
        u = states.random_haar_unitary(4, 17)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)


class TestPartialTranspose:
    def test_involution_exact(self):
        rho = states.random_full_rank_state(2, 3, 31)
        pt = states.partial_transpose(rho)
        # apply the raw index permutation a second time; PT of PT is the input
        twice = pt.reshape(2, 3, 2, 3).transpose(0, 3, 2, 1).reshape(6, 6)
        np.testing.assert_array_equal(twice, rho.mat)

    def test_product_state_pt_spectrum(self):
        rng = np.random.default_rng(32)
        rho, f1, f2 = product_state(rng, 2, 2)
        pt = states.partial_transpose(rho)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(pt)),
            np.sort(np.linalg.eigvalsh(rho.mat)),
            atol=1e-12,
        )


class TestPPTVerdict:
    def test_bell_state_entangled(self):
        verdict = states.ppt_verdict(bell_state())
        assert verdict.tag == states.ENTANGLED
        assert verdict.min_pt_eigenvalue == pytest.approx(-0.5, abs=1e-12)

    def test_maximally_mixed_separable(self):
        verdict = states.ppt_verdict(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        assert verdict.tag == states.SEPARABLE

    def test_constructed_separable(self):
        rho = states.random_separable_state(2, 2, terms=8, seed=41)
        assert states.ppt_verdict(rho).tag == states.SEPARABLE

    def test_ppt_beyond_exact_dims_is_inconclusive(self):
        rho = states.DensityMatrix(np.eye(9) / 9, 3, 3)
        assert states.ppt_verdict(rho).tag == states.INCONCLUSIVE

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(43)
        for seed in range(10):
            rho = states.random_full_rank_state(2, 2, seed)
            u = states.random_haar_unitary(2, rng)
            v = states.random_haar_unitary(2, rng)
            w = np.kron(u, v)
            rotated = states.DensityMatrix(w @ rho.mat @ w.conj().T, 2, 2)
            assert states.ppt_verdict(rotated).tag == states.ppt_verdict(rho).tag


class TestJsonSchema:
    def test_roundtrip(self):
        rho = states.random_full_rank_state(2, 2, 55)
        back = states.state_from_dict(states.state_to_dict(rho))
        assert np.abs(back.mat - rho.mat).max() < 1e-12

    def test_rejects_non_hermitian(self):
        doc = states.state_to_dict(states.random_full_rank_state(2, 2, 56))
        doc["matrix"][0][1] = [0.9, 0.0]
        with pytest.raises(NotHermitian):
            states.state_from_dict(doc)

    def test_rejects_bad_trace(self):
        doc = states.state_to_dict(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        doc["matrix"][0][0] = [0.1, 0.0]
        with pytest.raises(InvalidInput, match="trace"):
            states.state_from_dict(doc)

    def test_rejects_indefinite(self):
        mat = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        doc = {"dims": [2, 2], "matrix": [[[z.real, z.imag] for z in row] for row in mat]}
        with pytest.raises(NotPSD, match="PSD"):
            states.state_from_dict(doc)

    # File tolerance edges: Hermitian 1e-8 * max(scale, 1), trace and PSD
    # 1e-8, on the (4,4) maximally mixed state; 0.5x is accepted, 2x not.
    @staticmethod
    def mixed_doc_4x4(diag=None):
        w = np.full(16, 1 / 16) if diag is None else np.asarray(diag)
        return {"dims": [4, 4], "matrix": [[[float(z), 0.0] for z in row] for row in np.diag(w)]}

    @pytest.mark.parametrize("defect, ok", [(5e-9, True), (2e-8, False)])
    def test_hermitian_edge(self, defect, ok):
        doc = self.mixed_doc_4x4()
        doc["matrix"][0][1] = [defect, 0.0]
        if ok:
            states.state_from_dict(doc)
        else:
            with pytest.raises(NotHermitian):
                states.state_from_dict(doc)

    @pytest.mark.parametrize("excess, ok", [(5e-9, True), (2e-8, False)])
    def test_trace_edge(self, excess, ok):
        doc = self.mixed_doc_4x4()
        doc["matrix"][0][0] = [1 / 16 + excess, 0.0]
        if ok:
            states.state_from_dict(doc)
        else:
            with pytest.raises(InvalidInput, match="trace"):
                states.state_from_dict(doc)

    @pytest.mark.parametrize("neg, ok", [(5e-9, True), (2e-8, False)])
    def test_psd_edge(self, neg, ok):
        w = np.full(16, 1 / 16)
        w[0], w[1] = -neg, 2 / 16 + neg
        doc = self.mixed_doc_4x4(w)
        if ok:
            states.state_from_dict(doc)
        else:
            with pytest.raises(NotPSD, match="PSD"):
                states.state_from_dict(doc)

    @pytest.mark.parametrize("defect", ["shape", "hermitian", "trace", "psd"])
    def test_messages_match_density_matrix(self, defect):
        # Both intakes run one check: each 2x edge input above fails both with
        # one message, apart from the name, the tolerance and the file's
        # Hermitian scale floor of 1.
        w = np.full(16, 1 / 16)
        if defect == "psd":
            w[0], w[1] = -2e-8, 2 / 16 + 2e-8
        doc = self.mixed_doc_4x4(w)
        if defect == "shape":
            doc["dims"] = [2, 3]
        elif defect == "hermitian":
            doc["matrix"][0][1] = [2e-8, 0.0]
        elif defect == "trace":
            doc["matrix"][0][0] = [1 / 16 + 2e-8, 0.0]
        mat = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
        with pytest.raises(QcopulaError) as want:
            states.DensityMatrix(mat, *doc["dims"])
        with pytest.raises(QcopulaError) as got:
            states.state_from_dict(doc)
        scale = np.abs(mat).max()
        expected = (
            str(want.value)
            .replace("density matrix", "matrix")
            .replace("1e-10", "1e-08")
            .replace(f"scale {scale:.3e}", f"scale {max(scale, 1.0):.3e}")
        )
        assert type(got.value) is type(want.value)
        assert str(got.value) == expected

    def test_rejects_bad_dims(self):
        doc = states.state_to_dict(states.DensityMatrix(np.eye(4) / 4, 2, 2))
        doc["dims"] = [2, 3]
        with pytest.raises(InvalidInput, match="dims"):
            states.state_from_dict(doc)

    def test_repairs_truncated_decimals(self):
        rho = states.random_full_rank_state(2, 2, 57)
        doc = states.state_to_dict(rho)
        doc["matrix"] = [
            [[round(re, 10), round(im, 10)] for re, im in row] for row in doc["matrix"]
        ]
        back = states.state_from_dict(doc)
        assert abs(np.trace(back.mat) - 1) < 1e-14
        assert np.abs(back.mat - rho.mat).max() < 1e-9
