"""Command-line surface: single-state copula solves, batch experiment
suites, and the classical doubly-stochastic scaler.

All outputs are deterministic JSON written by ``jsonio.canonical_dumps``:
each float is its shortest round-trip ``repr`` (an integral float keeps
its decimal point), an object has one member per line, an array of
objects one element per line, and every other value is one line. The
only run-dependent field is ``timing_ms``. Exit codes: 0 success, 1
experiment suite reported failing cases or a solve failed its own
verification (an internal bug), 2 solver did not converge, 3 invalid
input or usage, 4 unknown suite name.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import copula as copmod
from . import jsonio, matcore, pmetric, sinkhorn, states
from .choi import choi_from_state
from .copula import SolverConfig
from .errors import (
    NotConverged,
    PrecopulaCheckFailed,
    QcopulaError,
    VerificationFailed,
)

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INTERNAL = 1
EXIT_NOT_CONVERGED = 2
EXIT_INVALID = 3
EXIT_UNKNOWN_SUITE = 4


class _Parser(argparse.ArgumentParser):
    # Bad invocations are validation failures, not solver failures.
    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file mirroring the solver config fields")
    p.add_argument("--tol", type=float, help="fixed-point tolerance in the projective metric")
    p.add_argument("--max-iter", type=int, help="iteration cap")
    p.add_argument("--regularize", action="store_true", default=None,
                   help="mix the input with eps*I/(nm) before solving")
    p.add_argument("--reg-eps", type=float, help="regularization weight")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcopula", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cop = sub.add_parser("copula", parents=[], help="compute the copula of a state file")
    p_cop.add_argument("input", help="density-matrix JSON file")
    p_cop.add_argument("--output", help="output path (stdout when omitted)")
    _add_solver_flags(p_cop)

    p_exp = sub.add_parser("experiment", help="run a batch property suite")
    p_exp.add_argument("suite", help="one of: " + ", ".join(SUITES))
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--count", type=int, default=50)
    p_exp.add_argument("--dims", default="2,2", help="bipartite dims as n,m")
    p_exp.add_argument("--output", help="output path (stdout when omitted)")
    _add_solver_flags(p_exp)

    p_cls = sub.add_parser("classical", help="doubly stochastic scaling of a positive matrix")
    p_cls.add_argument("input", help="real matrix JSON file")
    p_cls.add_argument("--output", help="output path (stdout when omitted)")
    p_cls.add_argument("--tol", type=float, default=sinkhorn.DEFAULT_TOL)
    p_cls.add_argument("--max-iter", type=int, default=sinkhorn.DEFAULT_MAX_ITER)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call: parsing leaves a
    parser unchanged, so one serves every call in a process."""
    return build_parser()


def _resolve_config(args) -> SolverConfig:
    """Defaults <- config file <- explicit flags, then one range check of
    the result, so that file values and flags are held to the same bounds."""
    cfg = SolverConfig()
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = SolverConfig.from_dict(json.load(fh))
    for name in ("tol", "max_iter", "regularize", "reg_eps"):
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg._check_ranges()
    return cfg


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def _verdict_dict(v: states.SeparabilityVerdict) -> dict:
    return {"tag": v.tag, "min_pt_eigenvalue": v.min_pt_eigenvalue}


def cmd_copula(args) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    obj = json.loads(raw.decode("utf-8"))
    rho = states.state_from_dict(obj)
    cfg = _resolve_config(args)
    start = time.perf_counter()
    try:
        result = copmod.copula_of(rho, cfg)
    except NotConverged as exc:
        report = exc.report
        doc = {
            "report": {
                "input_digest": _digest(raw),
                "result": {
                    "marginal_residual": None,
                    "iterations": report.iterations,
                    "lambda": report.lam,
                    "converged": False,
                },
                "timing_ms": (time.perf_counter() - start) * 1000.0,
                "config": cfg.to_dict(),
                "error": str(exc),
            }
        }
        _write(jsonio.canonical_dumps(doc), args.output)
        return EXIT_NOT_CONVERGED
    timing_ms = (time.perf_counter() - start) * 1000.0
    doc = {
        "copula": states.state_to_dict(result.chi),
        "psi0": jsonio.complex_matrix_to_pairs(result.scalers.psi0),
        "psi1": jsonio.complex_matrix_to_pairs(result.scalers.psi1),
        "report": {
            "input_digest": _digest(raw),
            "result": {
                "marginal_residual": result.marginal_residual,
                "iterations": result.report.iterations,
                "lambda": result.report.lam,
                "converged": True,
            },
            "verdicts": {
                "input": _verdict_dict(states.ppt_verdict(rho)),
                "copula": _verdict_dict(states.ppt_verdict(result.chi)),
            },
            "timing_ms": timing_ms,
            "config": cfg.to_dict(),
            "regularized": result.regularized,
        },
    }
    _write(jsonio.canonical_dumps(doc), args.output)
    return EXIT_OK


def cmd_classical(args) -> int:
    with open(args.input, "rb") as fh:
        raw = fh.read()
    obj = json.loads(raw.decode("utf-8"))
    mat = jsonio.real_matrix_from_json(obj)
    start = time.perf_counter()
    try:
        pair = sinkhorn.sinkhorn_scale(mat, tol=args.tol, max_iter=args.max_iter)
    except NotConverged as exc:
        doc = {
            "input_digest": _digest(raw),
            "converged": False,
            "error": str(exc),
            "timing_ms": (time.perf_counter() - start) * 1000.0,
        }
        _write(jsonio.canonical_dumps(doc), args.output)
        return EXIT_NOT_CONVERGED
    doc = {
        "input_digest": _digest(raw),
        "d1": pair.d1.tolist(),
        "d2": pair.d2.tolist(),
        "scaled": pair.scaled.tolist(),
        "iterations": pair.iterations,
        "max_deviation": pair.max_deviation,
        "converged": True,
        "timing_ms": (time.perf_counter() - start) * 1000.0,
    }
    _write(jsonio.canonical_dumps(doc), args.output)
    return EXIT_OK


def _parse_dims(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise QcopulaError(f"dims must be 'n,m', got {text!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise QcopulaError(f"dims must be integers, got {text!r}") from exc
    if n < 1 or m < 1:
        raise QcopulaError("dims must be positive")
    return n, m


def _iteration_histogram(counts: list[int]) -> list[list[int]]:
    return [list(item) for item in sorted(collections.Counter(counts).items())]


class _Suite(NamedTuple):
    """One experiment suite. ``sample(i)`` draws case i's input, ``solve``
    maps a list of inputs to their outcomes (a result, or the error its
    solve raised), ``record(i, input, outcome)`` is case i's document entry
    and ``agg`` summarizes the entries."""

    sample: Callable
    solve: Callable
    record: Callable
    agg: Callable


def _copulas(cfg):
    return lambda rhos: copmod.copula_batch(rhos, cfg)


def _suite_lambda(seed, count, dims, cfg):
    n, m = dims
    target = n / m

    def record(i, rho, result):
        err = abs(result.report.lam - target)
        return {
            "index": i,
            "lambda": result.report.lam,
            "lambda_error": err,
            "iterations": result.report.iterations,
            "pass": bool(err <= max(1e-8, cfg.tol)),
        }

    def agg(recs):
        return {
            "max_lambda_error": max(r["lambda_error"] for r in recs),
            "iteration_histogram": _iteration_histogram([r["iterations"] for r in recs]),
        }

    return _Suite(
        lambda i: states.random_full_rank_state(n, m, seed + i), _copulas(cfg), record, agg
    )


def _suite_convergence(seed, count, dims, cfg):
    n, m = dims

    def record(i, rho, result):
        its = result.report.iterations
        return {
            "index": i,
            "iterations": its,
            "final_step": result.report.final_step,
            "marginal_residual": result.marginal_residual,
            "pass": bool(its < 200),
        }

    def agg(recs):
        its = sorted(r["iterations"] for r in recs)
        return {
            "max_iterations": its[-1],
            "median_iterations": its[len(its) // 2],
            "iteration_histogram": _iteration_histogram(its),
        }

    return _Suite(
        lambda i: states.random_full_rank_state(n, m, seed + i), _copulas(cfg), record, agg
    )


def _suite_preserve_separability(seed, count, dims, cfg):
    n, m = dims
    if min(n, m) < 2:  # with a factor of dimension 1 every state is separable
        raise QcopulaError(f"preserve-separability needs n, m >= 2, got dims {n},{m}")

    def sample(i):
        if i < count // 2:
            return states.random_separable_state(n, m, terms=2 * n * m, seed=seed + i)
        rng = np.random.default_rng(seed + i)
        for _ in range(1000):
            rho = states.random_full_rank_state(n, m, rng)
            if states.ppt_verdict(rho).tag == states.ENTANGLED:
                return rho
        raise QcopulaError(f"could not sample an entangled state at dims ({n}, {m})")

    def record(i, rho, result):
        tag_in = states.ppt_verdict(rho).tag
        tag_out = states.ppt_verdict(result.chi).tag
        return {
            "index": i,
            "input_tag": tag_in,
            "copula_tag": tag_out,
            "marginal_residual": result.marginal_residual,
            "pass": bool(tag_in == tag_out),
        }

    def agg(recs):
        return {
            "verdict_agreements": sum(1 for r in recs if r["pass"]),
            "max_marginal_residual": max(r["marginal_residual"] for r in recs),
        }

    return _Suite(sample, _copulas(cfg), record, agg)


def _suite_uniqueness(seed, count, dims, cfg):
    n, m = dims
    inits = 5

    def sample(i):
        phi = choi_from_state(states.random_full_rank_state(n, m, seed + i))
        rng = np.random.default_rng((seed, i, 7))
        return phi, [states.wishart_state_matrix(n, rng) for _ in range(inits)]

    def solve(cases):
        reports = copmod.fixed_point_batch(
            [phi for phi, starts in cases for _ in starts],
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            inits=[x for _, starts in cases for x in starts],
        )
        runs = [reports[k : k + inits] for k in range(0, len(reports), inits)]
        solved = [
            all(not isinstance(rep, QcopulaError) and rep.converged for rep in reps)
            for reps in runs
        ]
        # every converged case's ray gaps, d(ray 0, ray j) for j >= 1, in one
        # stacked call
        firsts = [reps[0].phi_ray for reps, ok in zip(runs, solved) if ok for _ in reps[1:]]
        others = [rep.phi_ray for reps, ok in zip(runs, solved) if ok for rep in reps[1:]]
        stacks = (np.reshape(rays, (-1, n, n)) for rays in (firsts, others))
        gaps = iter(pmetric.hilbert_distance(*stacks))
        return [
            (reps, [next(gaps) for _ in reps[1:]] if ok else None)
            for reps, ok in zip(runs, solved)
        ]

    def record(i, case, outcome):
        reports, gaps = outcome
        for j, rep in enumerate(reports):
            error = copmod._run_error(rep, f"uniqueness case {i}: init {j}: ")
            if error is not None:
                raise error
        for d in gaps:
            if isinstance(d, QcopulaError):
                raise d
        gap = max(gaps)
        return {"index": i, "max_ray_gap": gap, "pass": bool(gap <= 1e-8)}

    def agg(recs):
        return {"max_ray_gap": max(r["max_ray_gap"] for r in recs)}

    return _Suite(sample, solve, record, agg)


def _suite_metric_axioms(seed, count, dims, cfg):
    d = dims[0] * dims[1]
    if d < 2:
        # the support check compares two orthogonal rank-one projectors
        raise QcopulaError(f"metric-axioms needs n*m >= 2, got dims {dims[0]},{dims[1]}")

    def sample(i):
        rng = np.random.default_rng((seed, i))
        a = states.wishart_state_matrix(d, rng)
        b = states.wishart_state_matrix(d, rng)
        c = states.wishart_state_matrix(d, rng)
        factor = float(rng.uniform(1e-3, 1e3))
        u = states.random_haar_unitary(d, rng)
        p1 = np.outer(u[:, 0], u[:, 0].conj())
        p2 = np.outer(u[:, 1], u[:, 1].conj())
        return a, b, c, factor, p1, p2

    def solve(cases):
        # per case: d(a,b), d(b,a), d(a,c), d(b,c), d(f a, b), d(a^-1, b^-1),
        # d(p1, p2), or the first error among them; one stacked call each
        a, b, c, factor, p1, p2 = (np.array(x) for x in zip(*cases))
        with matcore._lapack_errors():
            inverses = matcore._inv(a), matcore._inv(b)
        pairs = [(a, b), (b, a), (a, c), (b, c), (factor[:, None, None] * a, b), inverses, (p1, p2)]
        rows = zip(*(pmetric.hilbert_distance(x, y) for x, y in pairs))
        return [next((d for d in row if isinstance(d, QcopulaError)), row) for row in rows]

    def record(i, _case, distances):
        dab, dba, dac, dbc, d_scaled, d_inv, d_proj = distances
        sym = abs(dab - dba)
        triangle = dac - (dab + dbc)
        scale = abs(d_scaled - dab)
        inv_gap = abs(d_inv - dab)
        infinite = math.isinf(d_proj)
        ok = (
            sym <= 1e-10
            and triangle <= 1e-10
            and scale <= 1e-12
            and inv_gap <= 1e-10
            and infinite
        )
        return {
            "index": i,
            "symmetry_gap": sym,
            "triangle_excess": triangle,
            "scale_gap": scale,
            "inversion_gap": inv_gap,
            "support_mismatch_infinite": infinite,
            "pass": bool(ok),
        }

    def agg(recs):
        return {
            "max_symmetry_gap": max(r["symmetry_gap"] for r in recs),
            "max_triangle_excess": max(r["triangle_excess"] for r in recs),
            "max_scale_gap": max(r["scale_gap"] for r in recs),
            "max_inversion_gap": max(r["inversion_gap"] for r in recs),
        }

    return _Suite(sample, solve, record, agg)


_SUITE_BUILDERS = {
    "preserve-separability": _suite_preserve_separability,
    "uniqueness": _suite_uniqueness,
    "convergence": _suite_convergence,
    "lambda": _suite_lambda,
    "metric-axioms": _suite_metric_axioms,
}
SUITES = tuple(_SUITE_BUILDERS)


def _sample(suite: _Suite, i: int):
    try:
        return suite.sample(i)
    except Exception as exc:  # raised again in case order by _run_cases
        return exc


def _run_cases(suite: _Suite, count: int, chunk: int) -> list[dict]:
    """Every case's record, solving ``chunk`` cases at a time. A case whose
    sampling or solve failed raises that error when its turn in case order
    comes, as a case-by-case run would."""
    records = []
    for lo in range(0, count, chunk):
        cases = range(lo, min(lo + chunk, count))
        inputs = [_sample(suite, i) for i in cases]
        outcomes = iter(suite.solve([x for x in inputs if not isinstance(x, Exception)]))
        for i, case in zip(cases, inputs):
            if isinstance(case, Exception):
                raise case
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            records.append(suite.record(i, case, outcome))
    return records


def cmd_experiment(args) -> int:
    if args.suite not in _SUITE_BUILDERS:
        sys.stderr.write(
            f"unknown suite {args.suite!r}; expected one of: {', '.join(SUITES)}\n"
        )
        return EXIT_UNKNOWN_SUITE
    dims = _parse_dims(args.dims)
    cfg = _resolve_config(args)
    if args.count < 1:
        raise QcopulaError("count must be >= 1")
    if args.seed < 0:
        raise QcopulaError(f"--seed must be >= 0, got {args.seed}")
    suite = _SUITE_BUILDERS[args.suite](args.seed, args.count, dims, cfg)
    start = time.perf_counter()
    records = _run_cases(suite, args.count, copmod.batch_chunk(*dims))
    timing_ms = (time.perf_counter() - start) * 1000.0
    passed = sum(1 for r in records if r["pass"])
    doc = {
        "suite": args.suite,
        "seed": args.seed,
        "count": args.count,
        "dims": list(dims),
        "workers": 1,  # one process; the key keeps the document schema
        "config": cfg.to_dict(),
        "passed": passed,
        "failed": args.count - passed,
        "all_passed": passed == args.count,
        "aggregates": suite.agg(records),
        "timing_ms": timing_ms,
        "cases": records,
    }
    _write(jsonio.canonical_dumps(doc), args.output)
    return EXIT_OK if passed == args.count else EXIT_SUITE_FAILED


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "copula": cmd_copula,
        "experiment": cmd_experiment,
        "classical": cmd_classical,
    }
    try:
        return handlers[args.command](args)
    except NotConverged as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NOT_CONVERGED
    except (VerificationFailed, PrecopulaCheckFailed) as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (QcopulaError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
