"""Tests for the dense complex-matrix kernel."""

import re
import warnings

import numpy as np
import pytest

from qcopula import choi, copula, matcore, states
from qcopula.errors import NonFinite, NotHermitian, ShapeMismatch


def random_complex(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_pd(rng, n):
    g = random_complex(rng, n, n)
    return g @ g.conj().T + 0.1 * np.eye(n)


def pd_factor(a, route="sqrt"):
    # the factor psi with psi* psi = a that extract_scalers builds: the
    # Hermitian square root, either from the eigenpairs of a (as for psi0)
    # or as the power -1/2 of the eigenpairs of a^{-1} (as for psi1)
    if route == "sqrt":
        return copula._pd_power(*copula._eig_pd(a, "a"), 0.5)
    return copula._pd_power(*copula._eig_pd(np.linalg.inv(a), "a^-1"), -0.5)


class TestPdPower:
    def test_identity(self):
        np.testing.assert_allclose(pd_factor(np.eye(3)), np.eye(3))

    @pytest.mark.parametrize("route", ["sqrt", "inverse-sqrt"])
    def test_reconstruction_random(self, route):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = random_pd(rng, 3)
            psi = pd_factor(a, route)
            err = np.linalg.norm(psi.conj().T @ psi - a) / np.linalg.norm(a)
            assert err < 1e-12

    def test_sqrt_factor_is_hermitian(self):
        rng = np.random.default_rng(8)
        a = random_pd(rng, 4)
        psi = pd_factor(a)
        assert matcore.hermitian_defect(psi) <= 1e-12 * matcore.max_abs(psi)


def _intake_calls():
    """(argument name, expected size, call) for every public function that
    takes a matrix through ``matcore.as_cmatrix``; each call passes ``bad``
    as that argument and valid values for the rest, at dims (2, 3)."""
    rho = states.random_full_rank_state(2, 3, 0)
    phi = choi.choi_from_state(rho)
    a, b = np.eye(2), np.eye(3)
    return {
        "ChoiOperator": ("Choi matrix", 6, lambda bad: choi.ChoiOperator(bad, 2, 3)),
        "apply": ("input", 2, lambda bad: choi.apply(phi, bad)),
        "apply_adjoint": ("input", 3, lambda bad: choi.apply_adjoint(phi, bad)),
        "verify_connection-a": ("a", 2, lambda bad: copula.verify_connection(rho, rho, bad, b)),
        "verify_connection-b": ("b", 3, lambda bad: copula.verify_connection(rho, rho, a, bad)),
        "fixed_point_iterate-init": (
            "init", 2, lambda bad: copula.fixed_point_iterate(phi, init=bad)
        ),
    }


INTAKE_CALLS = _intake_calls()


class TestIntake:
    @pytest.mark.parametrize("name", INTAKE_CALLS)
    def test_wrong_shape_names_argument(self, name):
        what, dim, call = INTAKE_CALLS[name]
        for bad in (np.eye(dim + 1), np.ones((dim, dim + 1)), np.ones(dim * dim)):
            message = f"{what} has shape {bad.shape}, expected ({dim}, {dim})"
            with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
                call(bad)

    @pytest.mark.parametrize("name", INTAKE_CALLS)
    def test_nan_is_rejected(self, name):
        what, dim, call = INTAKE_CALLS[name]
        bad = np.eye(dim, dtype=complex)
        bad[-1, 0] = np.nan
        with pytest.raises(NonFinite, match=f"^{re.escape(what)} contains NaN or Inf entries$"):
            call(bad)

    def test_keeps_read_only_owned_array_and_copies_the_rest(self):
        kept = np.eye(3, dtype=complex)
        kept.flags.writeable = False
        assert matcore.as_cmatrix(kept, 3, "m") is kept
        view = kept[:, :]  # read-only but not owning its data
        for other in (np.eye(3, dtype=complex), view, np.eye(3), [[1, 0], [0, 1]]):
            got = matcore.as_cmatrix(other, len(other), "m")
            assert got.dtype == np.complex128 and not got.flags.writeable
            assert not np.shares_memory(got, np.asarray(other))


class TestRequireHermitian:
    def test_returns_hermitian_part_without_touching_input(self):
        a = np.array([[1.0, 2.0 + 1e-12j], [2.0, 3.0]], dtype=complex)
        before = a.copy()
        h = matcore.require_hermitian(a)
        assert matcore.hermitian_defect(h) == 0.0
        np.testing.assert_array_equal(a, before)
        np.testing.assert_allclose(h, a, atol=1e-12)

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
            matcore.require_hermitian(a)


def _check_stack():
    """3 x 3 matrices that pass or fail the Hermitian check in every way:
    a valid matrix, defects just above and just below rtol * scale, NaN,
    +Inf and -Inf entries, an exact zero, and tiny scales."""
    rtol = matcore.HERMITIAN_RTOL
    valid = np.array([[2.0, 0.5 - 1j, 0.25], [0.5 + 1j, 1.0, -0.5j], [0.25, 0.5j, 3.0]])

    def skewed(mat, defect):
        out = mat.astype(complex)
        out[0, 1] += defect
        return out

    nan, pos, neg = (np.eye(3, dtype=complex) for _ in range(3))
    nan[2, 1] = np.nan
    pos[1, 1] = np.inf
    neg[0, 2] = neg[2, 0] = -np.inf
    tiny_skew = np.zeros((3, 3), dtype=complex)
    tiny_skew[0, 1] = 3e-14
    return {
        "valid": valid,
        "defect-above": skewed(valid, 1.01 * rtol * 3.0),
        "defect-below": skewed(valid, 0.99 * rtol * 3.0),
        "nan": nan,
        "+inf": pos,
        "-inf": neg,
        "zero": np.zeros((3, 3), dtype=complex),
        "scale-5e-15": 5e-15 * valid / 3.0,
        "scale-1e-14": skewed(1e-14 * valid / 3.0, 0.5 * rtol * 1e-14),
        "scale-3e-14": tiny_skew,
    }


class TestHermitianParts:
    @pytest.mark.parametrize("scale_floor", [0.0, 1.0])
    def test_stack_matches_each_single_check(self, scale_floor):
        cases = _check_stack()
        stack = np.array(list(cases.values()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h, errors = matcore.hermitian_parts(stack, what="m", scale_floor=scale_floor)
            assert h.shape == stack.shape and len(errors) == len(stack)
            for name, mat, part, error in zip(cases, stack, h, errors):
                try:
                    want = matcore.require_hermitian(mat, what="m", scale_floor=scale_floor)
                except (NonFinite, NotHermitian) as exc:
                    assert type(error) is type(exc) and str(error) == str(exc), name
                else:
                    assert error is None, name
                    assert part.tobytes() == want.tobytes(), name
        kinds = {name: type(e).__name__ for name, e in zip(cases, errors) if e is not None}
        assert kinds == {
            "defect-above": "NotHermitian",
            "nan": "NonFinite",
            "+inf": "NonFinite",
            "-inf": "NonFinite",
            **({} if scale_floor else {"scale-3e-14": "NotHermitian"}),
        }

    def test_one_matrix_is_a_stack_of_one(self):
        mat = _check_stack()["defect-above"]
        h, (error,) = matcore.hermitian_parts(mat)
        assert h.shape == (3, 3) and isinstance(error, NotHermitian)
        _, (error,) = matcore.hermitian_parts(_check_stack()["valid"])
        assert error is None

    def test_empty_stack(self):
        h, errors = matcore.hermitian_parts(np.empty((0, 3, 3), dtype=complex))
        assert h.shape == (0, 3, 3) and errors == []


class TestLocalCongruence:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (1, 3)])
    def test_matches_kronecker_formula(self, dims):
        rng = np.random.default_rng(9)
        n, m = dims
        for _ in range(20):
            mat = random_complex(rng, n * m, n * m)
            a = random_complex(rng, n, n)
            b = random_complex(rng, m, m)
            k = np.kron(a, b)
            expected = k @ mat @ k.conj().T
            got = matcore.local_congruence(mat, a, b)
            assert got.shape == (n * m, n * m)
            assert np.abs(got - expected).max() <= 1e-13 * np.abs(expected).max()
