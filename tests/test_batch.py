"""The batched solver, its fixed-point loop and its stacked tail, against
the single solve, bit for bit and state by state."""

import numpy as np
import pytest

from qcopula import choi, copula, matcore, states
from qcopula.errors import (
    InvalidInput,
    NotConverged,
    QcopulaError,
    RankDeficient,
    SingularIntermediate,
    VerificationFailed,
)
from spectral_certificate import near_boundary_state


def bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def assert_same_report(got, want):
    assert bits(got.phi_ray) == bits(want.phi_ray)
    assert bits(got.step_history) == bits(want.step_history)
    for name in ("lam", "iterations", "final_step", "converged", "tol", "restarts"):
        assert getattr(got, name) == getattr(want, name), name


def serial_copula(rho, cfg=None):
    try:
        return copula.copula_of(rho, cfg)
    except QcopulaError as exc:
        return exc


def assert_same_copula(got, want):
    if isinstance(want, QcopulaError):
        assert type(got) is type(want)
        assert str(got) == str(want)
        if isinstance(want, NotConverged):
            assert_same_report(got.report, want.report)
        return
    assert_same_report(got.report, want.report)
    assert bits(got.chi.mat) == bits(want.chi.mat)
    for name in ("phi0", "phi1", "psi0", "psi1"):
        assert bits(getattr(got.scalers, name)) == bits(getattr(want.scalers, name)), name
    assert got.scalers.residual_forward == want.scalers.residual_forward
    assert got.scalers.residual_adjoint == want.scalers.residual_adjoint
    assert got.marginal_residual == want.marginal_residual


def operators(n, m, seeds):
    return [choi.choi_from_state(states.random_full_rank_state(n, m, s)) for s in seeds]


def classical_state(weights):
    """The diagonal (2,2) state with the given weights, normalized."""
    weights = np.asarray(weights, dtype=float)
    return states.DensityMatrix(np.diag(weights / weights.sum()), 2, 2)


def near_singular_state():
    """A classical (2,2) state whose eigenvalue floor, 1e-16 of the top,
    passes the rank check only at rank_tol=0. Its contraction passes three
    steps, and the fourth application of T fails the forward floor."""
    return classical_state([1.0, 1e-13, 1.0, 1e-16])


class TestBitIdentity:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_copulas_match_serial(self, dims):
        # the stacked loop and tail against copula_of's serial loop and its
        # tail as a stack of one
        rhos = [states.random_full_rank_state(*dims, seed) for seed in range(200)]
        for got, rho in zip(copula.copula_batch(rhos), rhos):
            assert_same_copula(got, serial_copula(rho))

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_uniqueness_inits_match_serial(self, dims):
        # the starting points the uniqueness suite draws for each case
        n, m = dims
        phis, inits = [], []
        for i, phi in enumerate(operators(n, m, range(20))):
            rng = np.random.default_rng((0, i, 7))
            for _ in range(5):
                phis.append(phi)
                inits.append(states.wishart_state_matrix(n, rng))
        got = copula.fixed_point_batch(phis, inits=inits)
        for report, phi, init in zip(got, phis, inits):
            assert_same_report(report, copula.fixed_point_iterate(phi, init=init))

    def test_chunks_match_serial(self, monkeypatch):
        monkeypatch.setattr(copula, "BATCH_CHUNK", 7)
        rhos = [states.random_full_rank_state(2, 3, seed) for seed in range(20)]
        for got, rho in zip(copula.copula_batch(rhos), rhos):
            assert_same_copula(got, serial_copula(rho))

    def test_chunk_shrinks_with_dims(self):
        assert copula.batch_chunk(2, 2) == copula.BATCH_CHUNK
        assert copula.batch_chunk(16, 16) == 1

    def test_chunk_of_one_runs_the_serial_loop(self, monkeypatch):
        def no_stack(*args, **kwargs):
            raise AssertionError("a chunk of one was stacked")

        monkeypatch.setattr(copula, "_fixed_point_stack", no_stack)
        phi = operators(2, 2, [0])[0]
        (got,) = copula.fixed_point_batch([phi])
        assert_same_report(got, copula.fixed_point_iterate(phi))

    def test_single_solves_stay_serial(self, monkeypatch):
        # copula_of is a batch of one, whose fixed point is a chunk of one
        def no_stack(*args, **kwargs):
            raise AssertionError("a single solve was stacked")

        monkeypatch.setattr(copula, "_fixed_point_stack", no_stack)
        rho = states.random_full_rank_state(2, 2, 0)
        got = copula.copula_of(rho).report
        assert got.converged
        assert_same_report(got, copula.fixed_point_iterate(choi.choi_from_state(rho)))

    @pytest.mark.parametrize(
        "rho, cfg, error",
        [
            (
                states.DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), 2, 2),
                None,
                RankDeficient,
            ),
            (states.random_full_rank_state(2, 2, 0), copula.SolverConfig(max_iter=2), NotConverged),
            (states.random_full_rank_state(2, 2, 0), copula.SolverConfig(tol=-1.0), InvalidInput),
        ],
        ids=["rank-deficient", "max-iter-2", "tol-out-of-range"],
    )
    def test_single_solve_unwraps_the_batch_of_one(self, rho, cfg, error):
        # copula_of raises what copula_batch([rho]) holds or raises: the
        # same type, message and report
        try:
            (want,) = copula.copula_batch([rho], cfg)
        except QcopulaError as exc:
            want = exc
        assert type(want) is error
        with pytest.raises(error) as got:
            copula.copula_of(rho, cfg)
        assert type(got.value) is error
        assert str(got.value) == str(want)
        if error is NotConverged:
            assert_same_report(got.value.report, want.report)
        else:
            assert not hasattr(got.value, "report") and not hasattr(want, "report")


def spy_on_serial_entry(monkeypatch) -> list:
    """The ids of the maps each later call of ``copula._iterate`` runs on."""
    calls, original = [], copula._iterate

    def spy(phi, *args):
        calls.append(id(phi))
        return original(phi, *args)

    monkeypatch.setattr(copula, "_iterate", spy)
    return calls


def forbidden(*args, **kwargs):
    raise AssertionError("the public serial loop was called")


class TestHandOff:
    """The stacked loop hands a state whose extrapolant it rejects to the
    serial loop, which finishes it from just after the restart; nothing is
    patched here, so the restarts are the arithmetic's own."""

    @pytest.mark.parametrize("max_iter", [6, 7, 8, 1000])
    def test_restart_in_a_stack_of_copulas(self, max_iter):
        # (2,2) seed 1136 restarts at step 7, the only one of seeds
        # 1100..1163 to restart; at max_iter=7 it is handed over with no
        # step left to take
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in range(1100, 1164)]
        cfg = copula.SolverConfig(max_iter=max_iter)
        got = copula.copula_batch(rhos, cfg)
        for item, rho in zip(got, rhos):
            assert_same_copula(item, serial_copula(rho, cfg))
        restarts = [item.report.restarts for item in got]
        assert restarts == [int(max_iter >= 7 and seed == 1136) for seed in range(1100, 1164)]

    @pytest.mark.parametrize("max_iter", [10, 13, 200])
    def test_near_boundary_restarts_in_a_stack(self, max_iter):
        # floors 1e-3 to 1e-12, ranks 1 and nm - 1, eight seeds each: some
        # states restart, at steps from 5 to 22, and some run out of steps
        restarted = 0
        for n, m in [(2, 2), (2, 3), (3, 3)]:
            phis = [
                choi.choi_from_state(near_boundary_state(n, m, rank, floor, seed))
                for floor in (1e-3, 1e-6, 1e-9, 1e-12)
                for rank in (1, n * m - 1)
                for seed in range(8)
            ]
            got = copula.fixed_point_batch(phis, max_iter=max_iter)
            for report, phi in zip(got, phis):
                assert_same_report(report, copula.fixed_point_iterate(phi, max_iter=max_iter))
                restarted += report.restarts > 0
        assert restarted > 0

    def test_no_restart_keeps_the_stack_in_lockstep(self, monkeypatch):
        handed = spy_on_serial_entry(monkeypatch)
        got = copula.fixed_point_batch(operators(2, 2, range(64)))
        assert handed == []
        assert all(report.converged and report.restarts == 0 for report in got)


class TestOwnFailures:
    """One state's failure is its own; its neighbours match the serial run."""

    @pytest.mark.parametrize(
        "bad, dims",
        [
            # Phi(I/2) = 1/2 is invertible, but Phi*(2) = diag(2, 0) is not
            (choi.ChoiOperator(np.diag([1.0, 0.0]), 2, 1), (2, 1)),
            # the forward image of I/2 is singular: dropped before the adjoint step
            (choi.ChoiOperator(np.diag([1.0, 0.0, 0.0, 0.0]), 2, 2), (2, 2)),
        ],
        ids=["adjoint-image", "forward-image"],
    )
    def test_singular_state_between_good_ones(self, bad, dims):
        first, last = operators(*dims, (0, 1))
        got = copula.fixed_point_batch([first, bad, last])
        with pytest.raises(SingularIntermediate) as serial:
            copula.fixed_point_iterate(bad)
        assert type(got[1]) is SingularIntermediate
        assert str(got[1]) == str(serial.value)
        assert_same_report(got[0], copula.fixed_point_iterate(first))
        assert_same_report(got[2], copula.fixed_point_iterate(last))

    def test_floor_failed_at_the_extra_application(self):
        # with max_iter=3 the loop's steps pass and the application of T
        # that reads lam off the last ray fails
        first, last = operators(2, 2, (0, 1))
        bad = choi.choi_from_state(near_singular_state())
        copula.fixed_point_iterate(bad, max_iter=2)
        with pytest.raises(SingularIntermediate) as serial:
            copula.fixed_point_iterate(bad, max_iter=3)
        got = copula.fixed_point_batch([first, bad, last], max_iter=3)
        assert type(got[1]) is SingularIntermediate
        assert str(got[1]) == str(serial.value)
        assert_same_report(got[0], copula.fixed_point_iterate(first, max_iter=3))
        assert_same_report(got[2], copula.fixed_point_iterate(last, max_iter=3))

    def test_every_state_failing_one_step(self):
        # the whole stack leaves at the forward floor; the adjoint step
        # then runs on an empty stack
        bad = choi.ChoiOperator(np.diag([1.0, 0.0, 0.0, 0.0]), 2, 2)
        with pytest.raises(SingularIntermediate) as serial:
            copula.fixed_point_iterate(bad)
        got = copula.fixed_point_batch([bad, bad])
        assert [type(item) for item in got] == [SingularIntermediate] * 2
        assert [str(item) for item in got] == [str(serial.value)] * 2

    def test_failed_gram_solves_fall_back_to_the_plain_contraction(self, monkeypatch):
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(matcore, "_solve", singular)
        phis = operators(2, 2, (153, 154, 155))
        got = copula.fixed_point_batch(phis)
        assert got[1].iterations == 268
        for report, phi in zip(got, phis):
            assert_same_report(report, copula.fixed_point_iterate(phi))

    def test_state_dependent_restarts(self, monkeypatch):
        # A Gram system fails on its own bits, so restarts hit some states
        # and not others, and their memories fill unevenly. Each restarting
        # state is handed to the serial loop's private entry once; the
        # public one, which a trace counts, is not called.
        original = matcore._solve

        def flaky(a, b):
            if (np.ascontiguousarray(a[..., 0, 0]).view(np.uint64) % 4 == 0).any():
                raise np.linalg.LinAlgError("singular matrix")
            return original(a, b)

        monkeypatch.setattr(matcore, "_solve", flaky)
        phis = operators(3, 3, range(40))
        with monkeypatch.context() as patch:
            handed = spy_on_serial_entry(patch)
            patch.setattr(copula, "fixed_point_iterate", forbidden)
            got = copula.fixed_point_batch(phis)
        serial = [copula.fixed_point_iterate(phi) for phi in phis]
        assert len({report.restarts for report in serial}) > 2
        for report, want in zip(got, serial):
            assert_same_report(report, want)
        restarted = [id(phi) for phi, want in zip(phis, serial) if want.restarts]
        assert sorted(handed) == sorted(restarted)

    def test_only_the_slow_state_stops_unconverged(self):
        # seed 3 at (2,2) takes 11 steps, seeds 0..7 otherwise at most 10
        phis = operators(2, 2, range(8))
        got = copula.fixed_point_batch(phis, max_iter=10)
        assert [report.converged for report in got] == [k != 3 for k in range(8)]
        for report, phi in zip(got, phis):
            assert_same_report(report, copula.fixed_point_iterate(phi, max_iter=10))

    def test_verification_failure_in_the_middle_of_a_stack(self, monkeypatch):
        # the scaling residuals of one state miss their bound; its tail
        # fails as a single solve's does, and the states stacked with it
        # finish as before
        rhos = [states.random_full_rank_state(2, 3, seed) for seed in range(9)]
        want = [serial_copula(rho) for rho in rhos]
        bad = choi.choi_from_state(rhos[4])._realigned.tobytes()
        original = copula._scaling_residuals

        def one_misses(r, *args):
            res = original(r, *args)
            return [(1.0, 1.0) if x.tobytes() == bad else pair for x, pair in zip(r, res)]

        monkeypatch.setattr(copula, "_scaling_residuals", one_misses)
        got = copula.copula_batch(rhos)
        assert type(got[4]) is VerificationFailed
        assert_same_copula(got[4], serial_copula(rhos[4]))
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            assert_same_copula(got[k], want[k])

    def test_singular_scalers_in_the_middle_of_a_stack(self, monkeypatch):
        # one converged run hands extract_scalers a zero ray, whose forward
        # image fails the floor: that state's tail fails as a single
        # solve's does, and the states stacked with it finish as before
        rhos = [states.random_full_rank_state(2, 3, seed) for seed in range(9)]
        want = [serial_copula(rho) for rho in rhos]
        bad = choi.choi_from_state(rhos[4])._realigned.tobytes()
        original = copula.fixed_point_batch

        def one_zero_ray(phis, **kwargs):
            reports = original(phis, **kwargs)
            for phi, report in zip(phis, reports):
                if phi._realigned.tobytes() == bad:
                    report.phi_ray = np.zeros_like(report.phi_ray)
            return reports

        monkeypatch.setattr(copula, "fixed_point_batch", one_zero_ray)
        got = copula.copula_batch(rhos)
        assert type(got[4]) is SingularIntermediate
        assert_same_copula(got[4], serial_copula(rhos[4]))
        for k in (0, 1, 2, 3, 5, 6, 7, 8):
            assert_same_copula(got[k], want[k])

    def test_singular_run_in_the_middle_of_a_stack(self):
        # the near-singular state passes the rank check at rank_tol=0 and
        # its fixed-point run fails a floor; its neighbours verify
        cfg = copula.SolverConfig(rank_tol=0.0)
        rhos = [states.random_full_rank_state(2, 2, 0), near_singular_state(),
                states.random_full_rank_state(2, 2, 1)]
        got = copula.copula_batch(rhos, cfg)
        assert type(got[1]) is SingularIntermediate
        for item, rho in zip(got, rhos):
            assert_same_copula(item, serial_copula(rho, cfg))

    def test_unconverged_run_in_the_middle_of_a_stack(self):
        # seed 3 at (2,2) takes 11 steps, seeds 0..7 otherwise at most 10
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in range(8)]
        cfg = copula.SolverConfig(max_iter=10)
        got = copula.copula_batch(rhos, cfg)
        assert [type(item) is NotConverged for item in got] == [k == 3 for k in range(8)]
        for item, rho in zip(got, rhos):
            assert_same_copula(item, serial_copula(rho, cfg))

    def test_short_run_floor_failure_and_good_state_in_one_chunk(self):
        # every run of the chunk goes to extract_scalers, which turns a short
        # run and a failed run into their errors: each entry is copula_of's
        # for its state alone (seed 3 at (2,2) takes 11 steps, seed 2 takes 8)
        cfg = copula.SolverConfig(max_iter=9, rank_tol=0.0)
        rhos = [states.random_full_rank_state(2, 2, 3), near_singular_state(),
                states.random_full_rank_state(2, 2, 2)]
        got = copula.copula_batch(rhos, cfg)
        kinds = ["NotConverged", "SingularIntermediate", "CopulaResult"]
        assert [type(item).__name__ for item in got] == kinds
        for item, rho in zip(got, rhos):
            assert_same_copula(item, serial_copula(rho, cfg))

    def test_rank_check_and_settings_per_state(self):
        deficient = states.DensityMatrix(np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex), 2, 2)
        good = [states.random_full_rank_state(2, 2, seed) for seed in (0, 1)]
        rhos = [good[0], deficient, good[1]]
        for cfg in (None, copula.SolverConfig(regularize=True), copula.SolverConfig(tol=1e-6)):
            for got, rho in zip(copula.copula_batch(rhos, cfg), rhos):
                assert_same_copula(got, serial_copula(rho, cfg))

    def test_mixed_dims_are_refused(self):
        with pytest.raises(ValueError, match="one dims"):
            copula.fixed_point_batch(operators(2, 2, [0]) + operators(2, 3, [0]))

    def test_bad_init_in_a_later_chunk_is_refused_before_any_solve(self, monkeypatch):
        # 70 (2,2) maps are a chunk of 64 and one of 6; the init at 66 is not
        # positive definite
        for name in ("_iterate", "_fixed_point_stack"):
            monkeypatch.setattr(copula, name, forbidden)
        inits = [None] * 70
        inits[66] = np.diag([1.0, -0.5])
        with pytest.raises(ValueError, match="init must be positive definite"):
            copula.fixed_point_batch(operators(2, 2, range(70)), inits=inits)

    def test_empty_batch(self):
        assert copula.fixed_point_batch([]) == []


def spy_on_solves(monkeypatch) -> list:
    """The number of maps each later call of ``copula.fixed_point_batch`` gets."""
    sizes, original = [], copula.fixed_point_batch

    def spy(phis, **kwargs):
        sizes.append(len(phis))
        return original(phis, **kwargs)

    monkeypatch.setattr(copula, "fixed_point_batch", spy)
    return sizes


class TestChunkBoundaries:
    """``copula_batch`` prepares, solves and finishes one chunk of prepared
    states at a time; with chunks of 7, each stage that can fail a state
    does so in a chunk of its own."""

    def test_each_failing_stage_in_its_own_chunk(self, monkeypatch):
        monkeypatch.setattr(copula, "BATCH_CHUNK", 7)
        cfg = copula.SolverConfig(tol=0.1, max_iter=3, rank_tol=0.0)
        # fails the forward floor at the loop's first step
        in_loop = classical_state([1.0, 1e-16, 1.0, 1e-16])
        # passes the loop's three steps; the application of T that reads
        # lam off the last iterate fails the forward floor
        at_lam = near_singular_state()
        refused = classical_state([0.5, 0.3, 0.2, 0.0])
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in range(21)]
        for k, rho in [(3, in_loop), (9, at_lam), (22, refused)]:
            rhos.insert(k, rho)
        # the good state at 18 converges, and its scaling residuals miss
        bad = choi.choi_from_state(rhos[18])._realigned.tobytes()
        original = copula._scaling_residuals

        def one_misses(r, *args):
            res = original(r, *args)
            return [(1.0, 1.0) if x.tobytes() == bad else pair for x, pair in zip(r, res)]

        def no_connection(*args):
            raise AssertionError("the tail called connection_matrices")

        monkeypatch.setattr(copula, "_scaling_residuals", one_misses)
        monkeypatch.setattr(copula, "connection_matrices", no_connection)
        want = [serial_copula(rho, cfg) for rho in rhos]
        with monkeypatch.context() as patch:
            sizes = spy_on_solves(patch)
            got = copula.copula_batch(rhos, cfg)
        # 23 prepared states: three full chunks and a last one of two
        assert sizes == [7, 7, 7, 2]
        for item, expected in zip(got, want):
            assert_same_copula(item, expected)
        kinds = {k: type(got[k]) for k in (3, 9, 18, 22)}
        assert kinds == {
            3: SingularIntermediate,
            9: SingularIntermediate,
            18: VerificationFailed,
            22: RankDeficient,
        }
        phi = choi.choi_from_state(at_lam)
        copula.fixed_point_iterate(phi, tol=0.1, max_iter=2)
        with pytest.raises(SingularIntermediate):
            copula.fixed_point_iterate(phi, tol=0.1, max_iter=3)
        assert any(isinstance(item, copula.CopulaResult) for item in got[:7])
        assert any(isinstance(item, NotConverged) for item in got)

    def test_mixed_dims_are_refused_before_any_solve(self, monkeypatch):
        monkeypatch.setattr(copula, "BATCH_CHUNK", 7)
        for name in ("_iterate", "_fixed_point_stack"):
            monkeypatch.setattr(copula, name, forbidden)
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in range(9)]
        rhos.append(states.random_full_rank_state(2, 3, 0))
        with pytest.raises(ValueError, match="one dims"):
            copula.copula_batch(rhos)

    def test_refused_state_of_other_dims_is_not_mixed(self, monkeypatch):
        monkeypatch.setattr(copula, "BATCH_CHUNK", 7)
        deficient = states.DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]), 2, 3)
        rhos = [states.random_full_rank_state(2, 2, seed) for seed in range(9)]
        rhos.insert(8, deficient)
        got = copula.copula_batch(rhos)
        assert type(got[8]) is RankDeficient
        for item, rho in zip(got, rhos):
            assert_same_copula(item, serial_copula(rho))
