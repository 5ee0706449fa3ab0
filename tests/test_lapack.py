"""The LAPACK helpers of ``matcore`` (``_eigh``, ``_eigvalsh``, ``_solve``,
``_inv``, ``_cholesky``) and the error state ``_lapack_errors`` they run in.

Every test runs with all warnings turned into errors: a raw gufunc that
fails outside the guard warns instead of raising ``LinAlgError``.
"""

import hashlib
import json
import types
import warnings

import numpy as np
import pytest

from qcopula import choi, cli, copula, matcore, pmetric, states
from qcopula.errors import NotPSD, QcopulaError, SingularIntermediate

ROUTINES = ("_eigh", "_eigvalsh", "_solve", "_inv", "_cholesky")
RAW = dict(zip(ROUTINES, (getattr(matcore, name) for name in ROUTINES)))


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def use_public_linalg(monkeypatch):
    """Force the helpers onto numpy.linalg's public functions."""
    for name, routine in zip(ROUTINES, matcore._lapack_routines(None)):
        monkeypatch.setattr(matcore, name, routine)


def hermitian_stack(rng, count, d):
    g = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    return g @ g.conj().swapaxes(-1, -2) + np.eye(d)


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def digest(results) -> str:
    """sha256 over each copula's chi, scalers, ray, lam, steps and restarts,
    or over the error's type and message."""
    h = hashlib.sha256()
    for res in results:
        if isinstance(res, QcopulaError):
            h.update(f"{type(res).__name__}: {res}".encode())
            continue
        r, s = res.report, res.scalers
        for a in (res.chi.mat, s.phi0, s.phi1, s.psi0, s.psi1, r.phi_ray, r.step_history):
            h.update(a.tobytes())
        h.update(repr((r.lam, r.iterations, r.restarts, s.residual_forward, s.residual_adjoint,
                       res.marginal_residual)).encode())
    return h.hexdigest()


def metric_stacks(d=3):
    """Two stacks (a, b) whose pairs meet every branch of hilbert_distance:
    full rank, rank-one projectors on one support and on two, a projector
    against a full-rank matrix, and a zero, a non-PSD and a NaN matrix."""
    rng = np.random.default_rng(5)
    full = hermitian_stack(rng, 4, d)
    u = states.random_haar_unitary(d, rng)
    p, q = (np.outer(u[:, k], u[:, k].conj()) for k in range(2))
    nan = full[0].copy()
    nan[0, 1] = np.nan
    a = [full[0], full[1], p, p, p, np.zeros((d, d)), np.diag([1.0, -1.0, 1.0]), nan]
    b = [full[2], full[3], 2.5 * p, q, full[0], full[1], full[2], full[3]]
    return np.array(a, dtype=complex), np.array(b, dtype=complex)


def metric_outcomes(a, b) -> list:
    """Each pair's distance, bit for bit, or its error's type and message."""
    return [
        f"{type(d).__name__}: {d}" if isinstance(d, QcopulaError) else float.hex(d)
        for d in pmetric.hilbert_distance(a, b)
    ]


def axioms_document(tmp_path) -> dict:
    out = tmp_path / "axioms.json"
    argv = ["experiment", "metric-axioms", "--dims", "2,2", "--count", "4", "--output", str(out)]
    assert cli.main(argv) == 0
    doc = json.loads(out.read_text())
    del doc["timing_ms"]
    return doc


def solve_all(rhos) -> str:
    singles = []
    for rho in rhos:
        try:
            singles.append(copula.copula_of(rho))
        except QcopulaError as exc:
            singles.append(exc)
    return digest(singles) + digest(copula.copula_batch(rhos))


class TestRoutines:
    @pytest.mark.parametrize("d", [1, 2, 3, 9])
    def test_bits_match_numpy_linalg(self, d):
        rng = np.random.default_rng(d)
        stack = hermitian_stack(rng, 5, d)
        real = stack.real @ stack.real.swapaxes(-1, -2) + np.eye(d)
        rhs = rng.standard_normal((5, d, 1))
        with matcore._lapack_errors():
            for a in (stack[0], stack):
                w, v = matcore._eigh(a)
                want_w, want_v = np.linalg.eigh(a)
                assert bits(w) == bits(want_w) and bits(v) == bits(want_v)
                assert bits(matcore._eigvalsh(a)) == bits(np.linalg.eigvalsh(a))
                assert bits(matcore._inv(a)) == bits(np.linalg.inv(a))
                assert bits(matcore._cholesky(a)) == bits(np.linalg.cholesky(a))
            assert bits(matcore._solve(real, rhs)) == bits(np.linalg.solve(real, rhs))
            assert bits(matcore._solve(real[0], rhs[0, :, 0])) == bits(
                np.linalg.solve(real[0], rhs[0, :, 0])
            )

    def test_gufuncs_resolve_on_this_numpy(self):
        # numpy 1.24, the floor pyproject.toml admits, and 2.x both have
        # them, so the raw routines, not the fallback, are in use
        assert matcore._umath_linalg is not None
        public = set(map(id, matcore._lapack_routines(None)))
        assert not public & {id(routine) for routine in RAW.values()}

    def test_missing_gufuncs_fall_back_to_numpy_linalg(self):
        public = (np.linalg.eigh, np.linalg.eigvalsh, np.linalg.solve, np.linalg.inv,
                  np.linalg.cholesky)
        assert matcore._lapack_routines(None) == public
        partial = types.SimpleNamespace(eigh_lo=None, eigvalsh_lo=None, solve=None, inv=None)
        assert matcore._lapack_routines(partial) == public

    @pytest.mark.parametrize(
        "name, args",
        [
            ("_solve", (np.zeros((2, 2)), np.ones(2))),
            ("_solve", (np.zeros((3, 2, 2)), np.ones((3, 2, 1)))),
            ("_inv", (np.zeros((2, 2), dtype=complex),)),
            ("_cholesky", (np.diag([1.0, -1.0]).astype(complex),)),
        ],
        ids=["solve-vector", "solve-stack", "inv", "cholesky"],
    )
    def test_failures_raise_numpy_linalg_errors(self, name, args):
        public = getattr(np.linalg, name[1:])
        with pytest.raises(np.linalg.LinAlgError) as want:
            public(*args)
        with matcore._lapack_errors(), pytest.raises(np.linalg.LinAlgError) as got:
            RAW[name](*args)
        assert str(got.value) == str(want.value)

    def test_guard_nests_and_restores(self):
        before = np.geterr(), np.geterrcall()
        with matcore._lapack_errors():
            inside = np.geterr(), np.geterrcall()
            with matcore._lapack_errors():
                assert (np.geterr(), np.geterrcall()) == inside
            assert (np.geterr(), np.geterrcall()) == inside
        assert (np.geterr(), np.geterrcall()) == before
        assert inside[0]["invalid"] == "call" and inside[1] is matcore._lapack_failed
        with pytest.raises(np.linalg.LinAlgError), matcore._lapack_errors():
            matcore._inv(np.zeros((2, 2), dtype=complex))
        assert (np.geterr(), np.geterrcall()) == before


class TestPublicFallback:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_digests_match_the_raw_path(self, monkeypatch, dims):
        rhos = [states.random_full_rank_state(*dims, seed) for seed in range(200)]
        raw = solve_all(rhos)
        use_public_linalg(monkeypatch)
        assert solve_all(rhos) == raw

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (16, 16)])
    def test_reading_and_verdicts_match_the_raw_path(self, monkeypatch, dims):
        # state_from_dict's eigh and ppt_verdict's eigvalsh, on states from
        # files and on their copulas
        docs = [
            states.state_to_dict(states.random_full_rank_state(*dims, seed)) for seed in range(3)
        ]

        def read_all():
            out = []
            for doc in docs:
                rho = states.state_from_dict(doc)
                chi = copula.copula_of(rho).chi
                out.append((bits(rho.mat), states.ppt_verdict(rho), states.ppt_verdict(chi)))
            return out

        raw = read_all()
        use_public_linalg(monkeypatch)
        assert read_all() == raw

    def test_metric_and_invariants_match_the_raw_path(self, monkeypatch, tmp_path):
        # hilbert_distance's eigh and eigvalsh on every branch, single and
        # stacked; copula_invariants' eigvalsh and connection_matrices' inv;
        # the metric-axioms suite's inverses
        a, b = metric_stacks()
        results = [copula.copula_of(states.random_full_rank_state(*dims, 0))
                   for dims in ((2, 2), (2, 3), (3, 3))]

        def read_all():
            out = [metric_outcomes(a, b), pmetric.hilbert_distance(a[0], b[0]).hex()]
            for res in results:
                out.append(bits(copula.copula_invariants(res.chi)))
                out.extend(bits(x) for x in copula.connection_matrices(res.scalers))
            return out, axioms_document(tmp_path)

        raw = read_all()
        outcomes = raw[0][0]
        assert "inf" not in outcomes[:3]
        assert outcomes[3:] == ["inf", "inf", "ZeroMatrix: a is numerically zero",
                                "NotPSD: a has negative eigenvalue -1.000e+00",
                                "NonFinite: a contains NaN or Inf entries"]
        use_public_linalg(monkeypatch)
        assert read_all() == raw

    def test_large_dims_digest_matches_the_raw_path(self, monkeypatch):
        rhos = [states.random_full_rank_state(16, 16, seed) for seed in range(4)]
        raw = solve_all(rhos)
        use_public_linalg(monkeypatch)
        assert solve_all(rhos) == raw


def singular_gram_solve(monkeypatch):
    """Every Gram system made singular, solved by the raw routine."""
    raw = RAW["_solve"]
    monkeypatch.setattr(matcore, "_solve", lambda a, b: raw(np.zeros_like(a), b))


class TestFailurePaths:
    def test_singular_gram_solve_restarts(self, monkeypatch):
        # the raw gufunc's failure, raised through the guard, rejects every
        # extrapolant: the plain contraction's seed-154 tail comes back
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in (153, 154, 155)]
        phis = [choi.choi_from_state(rho) for rho in rhos]
        singular_gram_solve(monkeypatch)
        serial = [copula.fixed_point_iterate(phi) for phi in phis]
        assert serial[1].iterations == 268
        assert all(report.restarts > 0 for report in serial)
        for got, want in zip(copula.fixed_point_batch(phis), serial):
            assert bits(got.phi_ray) == bits(want.phi_ray)
            assert (got.iterations, got.restarts) == (want.iterations, want.restarts)

    @pytest.mark.parametrize("public", [False, True], ids=["raw", "public"])
    @pytest.mark.parametrize(
        "weights",
        [(0.5, 0.5, 0.0, 0.0), (0.5, 0.5 + 1e-11, -1e-11, 0.0), (0.6, 0.5, -0.1, 0.0)],
        ids=["singular", "within-floor", "negative"],
    )
    def test_cholesky_route_falls_back_to_the_floor(self, monkeypatch, public, weights):
        # built outside any solve, as a caller builds a state
        if public:
            use_public_linalg(monkeypatch)
        mat = np.diag(weights).astype(complex)
        outcomes = []
        for route in (False, True):
            try:
                rho = states.DensityMatrix(mat, 2, 2, _cholesky=route)
                outcomes.append(("ok", rho.eig_range))
            except NotPSD as exc:
                outcomes.append(("NotPSD", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == ("NotPSD" if min(weights) < -states.STATE_TRACE_ATOL else "ok")

    def test_cholesky_route_reads_the_range_on_demand(self):
        rho = states.random_full_rank_state(3, 3, 0)
        again = states.DensityMatrix(rho.mat, 3, 3, _cholesky=True)
        assert "eig_range" not in vars(again)
        assert again.eig_range == rho.eig_range

    def test_no_path_warns(self, tmp_path):
        # every entry point that reaches a helper, on passing and failing
        # inputs; the autouse fixture turns any warning into an error
        good = states.random_full_rank_state(2, 2, 0)
        singular = states.DensityMatrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex), 2, 2)
        near = states.DensityMatrix(np.diag([1.0, 1e-13, 1.0, 1e-16]) / (2.0 + 1e-13 + 1e-16), 2, 2)
        bad = choi.ChoiOperator(np.diag([1.0, 0.0, 0.0, 0.0]), 2, 2)
        phi = choi.choi_from_state(good)
        with pytest.raises(SingularIntermediate):
            copula.fixed_point_iterate(bad)
        runs = copula.fixed_point_batch([phi, bad, phi])
        assert isinstance(runs[1], SingularIntermediate)
        pairs = copula.extract_scalers([phi, bad, phi], runs)
        assert pairs[1] is runs[1]
        copula.scaling_equation_residuals(phi, pairs[0].phi0, pairs[0].phi1)
        outcomes = [
            ({}, ["CopulaResult", "RankDeficient", "RankDeficient"]),
            ({"regularize": True}, ["CopulaResult"] * 3),
            ({"rank_tol": 0.0}, ["CopulaResult", "RankDeficient", "SingularIntermediate"]),
            ({"max_iter": 2}, ["NotConverged", "RankDeficient", "RankDeficient"]),
        ]
        for settings, want in outcomes:
            got = copula.copula_batch([good, singular, near], copula.SolverConfig(**settings))
            assert [type(item).__name__ for item in got] == want
        assert copula.copula_of(good).marginal_residual <= 1e-10
        for rho in (good, singular, near):
            states.ppt_verdict(rho)
            states.state_from_dict(states.state_to_dict(rho))
        negative = {"dims": [1, 2], "matrix": [[[1.1, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.1, 0.0]]]}
        with pytest.raises(NotPSD):
            states.state_from_dict(negative)
        a, b = metric_stacks()
        metric_outcomes(a, b)
        for x, y in zip(a, b):
            try:
                pmetric.hilbert_distance(x, y)
            except QcopulaError:
                pass
        result = copula.copula_of(good)
        copula.copula_invariants(result.chi)
        copula.connection_matrices(result.scalers)
        axioms_document(tmp_path)

    def test_every_entry_point_holds_the_guard(self, monkeypatch, tmp_path):
        # each helper call happens inside _lapack_errors, whichever public
        # function it is reached from
        calls = []
        for name in ROUTINES:
            def guarded(*args, _name=name, _raw=RAW[name]):
                assert np.geterrcall() is matcore._lapack_failed, _name
                calls.append(_name)
                return _raw(*args)

            monkeypatch.setattr(matcore, name, guarded)
        rho = states.random_full_rank_state(2, 2, 0)
        phi = choi.choi_from_state(rho)
        report = copula.fixed_point_iterate(phi, init=np.eye(2))
        copula.fixed_point_batch([phi, phi], inits=[np.eye(2), None])
        pair = copula.extract_scalers(phi, report)
        copula.extract_scalers([phi], [report])
        copula.scaling_equation_residuals(phi, pair.phi0, pair.phi1)
        copula.copula_of(rho, copula.SolverConfig(regularize=True))
        copula.copula_batch([rho, rho])
        again = states.DensityMatrix(rho.mat, 2, 2, _cholesky=True)
        assert again.eig_range == rho.eig_range
        states.DensityMatrix(rho.mat, 2, 2)
        assert set(calls) == set(ROUTINES)
        calls.clear()
        states.ppt_verdict(rho)
        assert calls == ["_eigvalsh"]
        calls.clear()
        states.state_from_dict(states.state_to_dict(rho))
        assert calls == ["_eigh", "_eigvalsh"]
        result = copula.copula_of(rho)
        calls.clear()
        pmetric.hilbert_distance(*metric_stacks())
        # one eigh per side, one eigvalsh per support rank (3 and 1)
        assert calls == ["_eigh", "_eigh", "_eigvalsh", "_eigvalsh"]
        calls.clear()
        pmetric.hilbert_distance(rho.mat, result.chi.mat)
        assert calls == ["_eigh", "_eigh", "_eigvalsh"]
        calls.clear()
        copula.copula_invariants(result.chi)
        assert calls == ["_eigvalsh"]
        calls.clear()
        copula.connection_matrices(result.scalers)
        assert calls == ["_inv"]
        calls.clear()
        axioms_document(tmp_path)
        assert set(calls) == {"_eigh", "_eigvalsh", "_inv"}
