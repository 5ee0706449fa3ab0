"""Property tests: every valid full-rank input at any stopping tolerance ends
in a verified copula or an honest ``NotConverged``, never in another error.

States are complex-valued, rotated by a Haar unitary, with a spectrum whose
smallest eigenvalue is ``floor`` times its largest: ``rank`` eigenvalues in
[0.5, 1] and the rest in [floor, 2 floor], so low ranks put the state near
the boundary of the cone.
"""

import numpy as np
import pytest

from qcopula import copula
from spectral_certificate import (
    certified_kappa,
    contraction_ratios,
    near_boundary_state,
    obeys_positivity_certificate,
    solve_verifies_or_reports_not_converged,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

DIMS = [(2, 2), (2, 3), (3, 2), (3, 3)]


@st.composite
def cases(draw):
    n, m = draw(st.sampled_from(DIMS))
    rank = draw(st.integers(1, n * m - 1))
    floor = 10.0 ** draw(st.floats(-8.0, -2.0))
    tol = 10.0 ** draw(st.floats(-12.0, -4.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return n, m, rank, floor, tol, seed


@hypothesis.settings(max_examples=120, derandomize=True, database=None, deadline=None)
@hypothesis.given(cases())
# a scaling-equation miss and a marginal miss at tol below eps * cond(rho)
@hypothesis.example((2, 3, 1, 1e-8, 1e-9, 3))
@hypothesis.example((2, 3, 1, 1e-7, 1e-10, 0))
def test_solve_verifies_or_reports_not_converged(case):
    n, m, rank, floor, tol, seed = case
    rho = near_boundary_state(n, m, rank, floor, seed)
    assert np.abs(rho.mat.imag).max() > 0.0
    lo, hi = rho.eig_range
    assert lo > 0.5 * floor * hi
    solve_verifies_or_reports_not_converged(rho, copula.SolverConfig(tol=tol))


@pytest.mark.parametrize("floor", [1e-3, 1e-6])
@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
def test_near_boundary_contraction_stays_certified(dims, floor):
    # kappa(Phi) comes closest to one here, and for states dominated by one
    # eigenvalue the sampled ratios come within ~1e-5 of it, relative
    n, m = dims
    for rank in (1, n * m - 1):
        for seed in range(3):
            rho = near_boundary_state(n, m, rank, floor, seed)
            kappa = certified_kappa(rho)
            phi, tanh_quarter, t = contraction_ratios(rho, pairs=20, seed=seed)
            assert kappa < 1.0
            assert phi.max() <= kappa and tanh_quarter.max() <= kappa
            assert t.max() <= kappa**2
            assert obeys_positivity_certificate(rho, trials=20, seed=seed)
