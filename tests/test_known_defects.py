"""Valid inputs that still end badly, one strict xfail per family.

Each test states what the program should do on a whole family of valid
inputs, with the suites' own pass rules (``cli._*_case``) or the checks of
the test it extends, and is marked ``xfail(strict=True)`` with the ROADMAP
item that mends it and the cases that fail today. Only a failed assertion
counts as the expected failure, so any other error still fails the run. A
family rather than a single case is pinned because several misses sit at
rounding level and a lone case could pass on another BLAS. A change that
mends a family makes its test pass, which fails the run until the marker is
removed.
"""

import numpy as np
import pytest

from qcopula import cli, copula, states
from qcopula.errors import RankDeficient
from spectral_certificate import near_boundary_state, solve_verifies_or_reports_not_converged
from test_copula import near_singular_mixture

DIMS = ((2, 2), (2, 3), (3, 3))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 8: the metric-axioms suite fails 17 of its 1200 cases, all on "
        "the scale gap (1.05e-12 to 4.5e-11 against 1e-12); (3,3) case 170 at seed 0 "
        "also misses symmetry by 3.0e-10"
    ),
)
def test_metric_axioms_suite_passes_every_case():
    failing = []
    for dims in DIMS:
        for seed in (0, 1000):
            suite = cli._suite_metric_axioms(seed, 200, dims, copula.SolverConfig())
            records = cli._run_cases(suite, 200, copula.batch_chunk(*dims))
            failing += [(dims, seed, r["index"]) for r in records if not r["pass"]]
    assert failing == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 1: at --tol 1e-6 the uniqueness suite judges the ray gap at a "
        "fixed 1e-8; 19 of 20 (2,2) cases fail, the worst gap 6.39e-6"
    ),
)
def test_uniqueness_suite_passes_at_a_loose_tol(tmp_path):
    argv = ["experiment", "uniqueness", "--tol", "1e-6", "--count", "20",
            "--dims", "2,2", "--seed", "0", "--output", str(tmp_path / "uniqueness.json")]
    assert cli.main(argv) == cli.EXIT_OK


def refused(family):
    """The members of ``family`` (label, state) that ``copula_of`` refuses as
    rank deficient at default settings; every other member must end verified
    or in ``NotConverged``."""
    out = []
    for label, rho in family:
        try:
            solve_verifies_or_reports_not_converged(rho, copula.SolverConfig())
        except RankDeficient:
            out.append(label)
    return out


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 3: the rank check refuses (2,2) mixtures (1-f)|v><v| + f W "
        "that all verify at rank_tol 1e-16: 18 of 20 seeds at f = 1e-9, 20 of 20 "
        "at 1e-10 and 1e-12"
    ),
)
def test_near_singular_mixtures_are_not_refused():
    family = [
        ((f, seed), near_singular_mixture(f, seed))
        for f in (1e-9, 1e-10, 1e-12)
        for seed in range(20)
    ]
    assert refused(family) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 3: the rank check refuses all 24 near-boundary states with "
        "floor 1e-12 (dims (2,2), (2,3), (3,3); ranks 1 and nm-1; seeds 0..3)"
    ),
)
def test_floor_1e12_boundary_states_are_not_refused():
    family = [
        ((n, m, rank, seed), near_boundary_state(n, m, rank, 1e-12, seed))
        for n, m in DIMS
        for rank in (1, n * m - 1)
        for seed in range(4)
    ]
    assert refused(family) == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 4: 13 rank-1 near-boundary states run all 1000 steps at "
        "default settings: floor 1e-6 (2,3) seed 3 and (3,3) seeds 0..3; floor 1e-9 "
        "(2,3) and (3,3) seeds 0..3"
    ),
)
def test_stalled_runs_end_before_max_iter():
    cases = [(1e-6, (2, 3), 3)] + [
        (floor, dims, seed)
        for floor, dims in ((1e-6, (3, 3)), (1e-9, (2, 3)), (1e-9, (3, 3)))
        for seed in range(4)
    ]
    cfg = copula.SolverConfig()
    stalled = []
    for floor, (n, m), seed in cases:
        rho = near_boundary_state(n, m, 1, floor, seed)
        if solve_verifies_or_reports_not_converged(rho, cfg).iterations >= cfg.max_iter:
            stalled.append((floor, (n, m), seed))
    assert stalled == []


def filtered_werner_state(p, seed):
    """p |psi-><psi-| + (1 - p) I/4 filtered by a random local K = A (x) B,
    with A and B each 2I plus a complex Gaussian (real part drawn first)."""
    psi = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = p * np.outer(psi, psi) + (1.0 - p) * np.eye(4) / 4.0
    rng = np.random.default_rng(seed)
    a, b = (2.0 * np.eye(2) + rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(2))
    k = np.kron(a, b)
    mat = k @ rho @ k.conj().T
    mat = (mat + mat.conj().T) / 2.0
    return states.DensityMatrix(mat / np.trace(mat).real, 2, 2)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason=(
        "ROADMAP item 6: filtered Werner states at p = 1/3 + 3e-10 get a different "
        "PPT tag from their copula for 15 of 20 seeds (1-5, 8-11, 14-19) under the "
        "absolute -1e-10 threshold"
    ),
)
def test_werner_family_keeps_its_ppt_tags():
    flipped = []
    for delta in (0.0, 3e-11, -3e-11, 1e-10, -1e-10, 3e-10, -3e-10):
        for seed in range(20):
            rho = filtered_werner_state(1.0 / 3.0 + delta, seed)
            if not cli._separability_case(rho, copula.copula_of(rho))["pass"]:
                flipped.append((delta, seed))
    assert flipped == []
