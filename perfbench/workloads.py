"""The four benchmark workloads: their inputs, operations and checks.

Each workload is a fixed ensemble of inputs; the workload seed fixes the
order in which one pass visits them. The inputs are generated here with
numpy, so they do not change when the program's own samplers change. The
development ensembles start at state seed 0 (the acceptance and ROADMAP
ensembles); the held-out ensembles start at ``HELD_OUT_BASE``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HELD_OUT_BASE = 1000
FULL_RANK_FLOOR = 1e-12
RESAMPLE_ATTEMPTS = 10

SMALL_DIMS = ((2, 2), (2, 3), (3, 3))
SMALL_COUNT = 200
LARGE_DIMS = (16, 16)
LARGE_COUNT = 30
CLI_STATES_PER_DIMS = 8
CLI_CLASSICAL = ((32, 8), (64, 4))  # (size, how many): one classical call per two copula calls
SUITES = (
    ("convergence", (2, 2), 200),
    ("preserve-separability", (2, 3), 200),
    ("uniqueness", (3, 3), 40),
    ("metric-axioms", (3, 3), 200),
)


def wishart_state(n: int, m: int, seed: int) -> np.ndarray:
    """Trace-one GG*/Tr(GG*) for complex Gaussian G, resampled while the
    smallest eigenvalue is at or below 1e-12; the same draw sequence as
    ``qcopula.states.random_full_rank_state`` at the seed commit."""
    rng = np.random.default_rng(seed)
    d = n * m
    for _ in range(RESAMPLE_ATTEMPTS):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        w = g @ g.conj().T
        w = (w + w.conj().T) / 2.0
        w = w / np.trace(w).real
        if np.linalg.eigvalsh(w)[0] > FULL_RANK_FLOOR:
            return w
    raise RuntimeError(f"no full-rank ({n}, {m}) state for seed {seed}")


def positive_matrix(size: int, seed: list[int]) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.05, 1.0, (size, size))


@dataclass
class Op:
    """One operation: ``run`` is the timed call; ``cases`` is how many
    operations it counts as."""

    key: str
    run: Callable[[], object]
    cases: int = 1
    data: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """Result of checking one operation's output."""

    failed_cases: int = 0
    problems: list = field(default_factory=list)
    identical: int = 0
    documents: int = 0


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


class LibraryWorkload:
    """``copula_of`` on in-memory states; one operation is one solve."""

    def __init__(self, name, qc, work: Path, order_seed: int, base: int, dims_list, count, tail):
        self.name = name
        self.tail_percentile = tail
        self.qc = qc
        self.work = work
        self.order_seed = order_seed
        self.base = base
        self.dims_list = dims_list
        self.count = count
        self.ops: list[Op] = []
        self._verified: dict[str, set] = {}

    def prepare(self) -> None:
        copula = self.qc.copula
        for n, m in self.dims_list:
            for i in range(self.count):
                seed = self.base + i
                mat = wishart_state(n, m, seed)
                rho = self.qc.states.DensityMatrix(mat, n, m)
                self.ops.append(Op(
                    key=f"{n}x{m}/{seed}",
                    run=lambda rho=rho: copula.copula_of(rho),
                    data={"mat": mat, "n": n, "m": m},
                ))
        order = np.random.default_rng(self.order_seed).permutation(len(self.ops))
        self.ops = [self.ops[k] for k in order]
        first = self.ops[0].data
        np.save(self.work / "probe.npy", first["mat"])
        self.probe_args = ["library", str(self.work / "probe.npy"), str(first["n"]), str(first["m"])]

    def warmup(self) -> None:
        self.ops[0].run()

    def check(self, op: Op, output, ref: dict) -> Outcome:
        digest = checks.solve_digest(output)
        seen = self._verified.setdefault(op.key, set())
        if digest in seen:
            return Outcome()
        d = op.data
        problems = checks.check_solve(d["mat"], d["n"], d["m"], output, ref[op.key])
        if not problems:
            seen.add(digest)
        return Outcome(failed_cases=1 if problems else 0, problems=problems)

    def record(self, op: Op, output) -> dict:
        d = op.data
        return checks.solve_reference(d["mat"], d["n"], d["m"], output)


def _read_output(path: Path) -> tuple[str, object]:
    text = path.read_text(encoding="utf-8")
    return text, json.loads(text)


class CliFilesWorkload:
    """In-process ``qcopula.cli.main`` on pre-written files; one operation
    is one ``main`` call. Two ``copula`` calls per ``classical`` call."""

    name = "cli-files"
    tail_percentile = 99.0

    def __init__(self, qc, work: Path, order_seed: int, base: int):
        self.qc = qc
        self.work = work
        self.order_seed = order_seed
        self.base = base
        self.ops: list[Op] = []

    def _op(self, key: str, argv: list[str], out: Path, kind: str) -> Op:
        cli = self.qc.cli
        return Op(key=key, run=lambda: cli.main(argv), data={"out": out, "kind": kind})

    def prepare(self) -> None:
        inputs = self.work / "inputs"
        outputs = self.work / "out"
        inputs.mkdir()
        outputs.mkdir()
        copulas, classicals = [], []
        for n, m in SMALL_DIMS:
            for i in range(CLI_STATES_PER_DIMS):
                seed = self.base + i
                mat = wishart_state(n, m, seed)
                path = inputs / f"state-{n}x{m}-{seed}.json"
                _write_json(path, {"dims": [n, m], "matrix": checks.pairs(mat)})
                copulas.append((f"copula/{n}x{m}/{seed}", path))
        for size, count in CLI_CLASSICAL:
            for i in range(count):
                mat = positive_matrix(size, [self.base, size, i])
                path = inputs / f"classical-{size}-{i}.json"
                _write_json(path, {"matrix": mat.tolist()})
                classicals.append((f"classical/{size}/{i}", path))
        rng = np.random.default_rng(self.order_seed)
        copulas = [copulas[k] for k in rng.permutation(len(copulas))]
        classicals = [classicals[k] for k in rng.permutation(len(classicals))]
        for k, (key, path) in enumerate(copulas):
            out = outputs / f"op{len(self.ops)}.json"
            self.ops.append(self._op(key, ["copula", str(path), "--output", str(out)], out, "copula"))
            if k % 2 == 1:
                ckey, cpath = classicals[k // 2]
                out = outputs / f"op{len(self.ops)}.json"
                self.ops.append(
                    self._op(ckey, ["classical", str(cpath), "--output", str(out)], out, "classical")
                )
        first = copulas[0][1]
        self.probe_args = ["cli", "copula", str(first), "--output", str(outputs / "probe.json")]

    def warmup(self) -> None:
        self.ops[0].run()

    def _document(self, op: Op, output):
        if output != 0:
            raise ValueError(f"exit code {output!r}")
        text, doc = _read_output(op.data["out"])
        if op.data["kind"] == "classical":
            deviation = checks.stochastic_deviation(doc.pop("scaled"))
            if deviation > checks.STOCHASTIC_TOL:
                raise ValueError(f"scaled matrix is {deviation:.3e} from doubly stochastic")
        return text, doc

    def check(self, op: Op, output, ref: dict) -> Outcome:
        want = ref[op.key]
        if output != 0:
            return Outcome(failed_cases=1, problems=[f"exit code {output!r}"], documents=1)
        try:
            text = op.data["out"].read_text(encoding="utf-8")
            if checks.normalized_digest(text) == want["digest"]:
                # The recorded document, which passed every check below.
                return Outcome(identical=1, documents=1)
            text, doc = self._document(op, output)
        except (OSError, ValueError) as exc:
            return Outcome(failed_cases=1, problems=[str(exc)], documents=1)
        problems = checks.diff_doc(checks.strip_doc(doc), want["doc"])
        return Outcome(failed_cases=1 if problems else 0, problems=problems, documents=1)

    def record(self, op: Op, output) -> dict:
        text, doc = self._document(op, output)
        return {"digest": checks.normalized_digest(text), "doc": checks.strip_doc(doc)}


class SuiteWorkload:
    """In-process ``qcopula experiment`` suites; one ``main`` call runs one
    suite, and one operation is one suite case."""

    name = "suite"
    tail_percentile = 100.0

    def __init__(self, qc, work: Path, order_seed: int, base: int):
        self.qc = qc
        self.work = work
        self.order_seed = order_seed
        self.base = base
        self.ops: list[Op] = []

    def _argv(self, suite: str, dims, count: int, out: Path) -> list[str]:
        return [
            "experiment", suite, "--seed", str(self.base), "--count", str(count),
            "--dims", f"{dims[0]},{dims[1]}", "--output", str(out),
        ]

    def prepare(self) -> None:
        outputs = self.work / "out"
        outputs.mkdir()
        cli = self.qc.cli
        order = np.random.default_rng(self.order_seed).permutation(len(SUITES))
        for k in order:
            suite, dims, count = SUITES[k]
            out = outputs / f"{suite}.json"
            argv = self._argv(suite, dims, count, out)
            self.ops.append(Op(
                key=suite, run=lambda argv=argv: cli.main(argv), cases=count, data={"out": out}
            ))
        warm = self._argv("convergence", (2, 2), 1, outputs / "warmup.json")
        self._warm_argv = warm
        self.probe_args = ["cli"] + self._argv("convergence", (2, 2), 1, outputs / "probe.json")

    def warmup(self) -> None:
        self.qc.cli.main(self._warm_argv)

    def check(self, op: Op, output, ref: dict) -> Outcome:
        want = ref[op.key]
        if output not in (0, 1):
            return Outcome(failed_cases=op.cases, problems=[f"exit code {output!r}"], documents=1)
        try:
            text, doc = _read_output(op.data["out"])
        except (OSError, ValueError) as exc:
            return Outcome(failed_cases=op.cases, problems=[str(exc)], documents=1)
        identical = int(checks.normalized_digest(text) == want["digest"])
        cases = doc.get("cases") if isinstance(doc, dict) else None
        head = {k: v for k, v in doc.items() if k != "cases"} if isinstance(doc, dict) else doc
        want_head = {k: v for k, v in want["doc"].items() if k != "cases"}
        problems = checks.diff_doc(checks.strip_doc(head), want_head)
        if problems or not isinstance(cases, list) or len(cases) != op.cases:
            return Outcome(op.cases, problems or ["case list differs"], identical, 1)
        failed = 0
        for case, want_case in zip(cases, want["doc"]["cases"]):
            found = checks.diff_doc(checks.strip_doc(case), want_case)
            problems += found
            if found or case.get("pass") is not True:
                failed += 1
        if (output == 0) != (failed == 0) and not problems:
            problems.append(f"exit code {output} disagrees with {failed} failing cases")
        return Outcome(failed, problems, identical, 1)

    def record(self, op: Op, output) -> dict:
        text, doc = _read_output(op.data["out"])
        return {"digest": checks.normalized_digest(text), "doc": checks.strip_doc(doc)}


WORKLOADS = ("small-batch", "large-dims", "cli-files", "suite")


def make(name: str, qc, work: Path, order_seed: int, held_out: bool):
    base = HELD_OUT_BASE if held_out else 0
    if name == "small-batch":
        return LibraryWorkload(name, qc, work, order_seed, base, SMALL_DIMS, SMALL_COUNT, 99.0)
    if name == "large-dims":
        # 30 solves a pass: p95 keeps ten samples beyond it within a run.
        return LibraryWorkload(name, qc, work, order_seed, base, (LARGE_DIMS,), LARGE_COUNT, 95.0)
    if name == "cli-files":
        return CliFilesWorkload(qc, work, order_seed, base)
    if name == "suite":
        return SuiteWorkload(qc, work, order_seed, base)
    raise ValueError(f"unknown workload {name!r}")
