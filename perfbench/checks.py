"""Correctness checks against the recorded reference.

Every numerical check here is computed with numpy from the result's public
fields, so it does not depend on the program's own verification code.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RAY_ATOL = 1e-9
LAMBDA_ATOL = 1e-8
MARGINAL_TOL = 1e-10  # SolverConfig().marginal_tol at the seed commit
CONNECTION_TOL = 1e-9
DOC_TOL = 1e-9
STOCHASTIC_TOL = 1e-9
PPT_EIG_THRESHOLD = -1e-10
PPT_EXACT_DIMS = ((2, 2), (2, 3), (3, 2))

# Fields that legitimately change between correct versions: run timing,
# iteration counts (and what is derived from them), and the program's own
# pass/fail verdicts, which the benchmark counts as failures separately.
EXCLUDED_KEYS = frozenset({
    "timing_ms",
    "iterations",
    "max_iterations",
    "median_iterations",
    "iteration_histogram",
    "pass",
    "passed",
    "failed",
    "all_passed",
})

_TIMING_RE = re.compile(r'"timing_ms": [-+0-9.eE]+')


def reference_path(workload: str, held_out: bool) -> Path:
    suffix = ".held-out" if held_out else ""
    return REFERENCE_DIR / f"{workload}{suffix}.json.gz"


def load_reference(workload: str, held_out: bool) -> dict:
    with gzip.open(reference_path(workload, held_out), "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(workload: str, held_out: bool, doc: dict) -> Path:
    path = reference_path(workload, held_out)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(doc, indent=0, sort_keys=True)
    with gzip.GzipFile(path, "wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
    return path


def source_digest(src: Path) -> str:
    """sha256 over the program's Python sources, in path order."""
    h = hashlib.sha256()
    for path in sorted((src / "qcopula").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()


def normalized_digest(text: str) -> str:
    """Digest of a CLI document with its timing field blanked."""
    return "sha256:" + hashlib.sha256(_TIMING_RE.sub('"timing_ms": 0', text).encode()).hexdigest()


def ppt_tag(mat: np.ndarray, n: int, m: int) -> str:
    t = mat.reshape(n, m, n, m).transpose(0, 3, 2, 1).reshape(n * m, n * m)
    lo = float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[0])
    if lo < PPT_EIG_THRESHOLD:
        return "entangled"
    return "separable" if (n, m) in PPT_EXACT_DIMS else "inconclusive"


def marginal_residual(chi: np.ndarray, n: int, m: int) -> float:
    t = chi.reshape(n, m, n, m)
    r1 = np.linalg.norm(np.einsum("ikil->kl", t) - np.eye(m) / m)
    r2 = np.linalg.norm(np.einsum("ikjk->ij", t) - np.eye(n) / n)
    return float(max(r1, r2))


def connection_gap(rho: np.ndarray, chi: np.ndarray, psi0: np.ndarray, psi1: np.ndarray) -> float:
    """Frobenius distance between the normalized (a* o b*) rho (a o b) and
    chi, for a = conj(psi0^-1) and b = psi1*."""
    k = np.kron(np.conj(np.linalg.inv(psi0)), psi1.conj().T)
    lhs = k.conj().T @ rho @ k
    return float(np.linalg.norm(lhs / np.trace(lhs).real - chi))


def pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def from_pairs(rows: list) -> np.ndarray:
    arr = np.asarray(rows, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def solve_reference(rho: np.ndarray, n: int, m: int, result) -> dict:
    return {
        "dims": [n, m],
        "phi_ray": pairs(result.report.phi_ray),
        "tag_rho": ppt_tag(rho, n, m),
        "tag_chi": ppt_tag(result.chi.mat, n, m),
    }


def check_solve(rho: np.ndarray, n: int, m: int, result, ref: dict) -> list[str]:
    """Problems with one library solve; empty when it matches."""
    problems = []
    ray = np.asarray(result.report.phi_ray)
    want = from_pairs(ref["phi_ray"])
    if ray.shape != want.shape or float(np.max(np.abs(ray - want))) > RAY_ATOL:
        problems.append("phi_ray differs from the reference")
    if ppt_tag(rho, n, m) != ref["tag_rho"]:
        problems.append("PPT tag of the input differs")
    chi = np.asarray(result.chi.mat)
    if ppt_tag(chi, n, m) != ref["tag_chi"]:
        problems.append("PPT tag of the copula differs")
    if abs(float(result.report.lam) - n / m) > LAMBDA_ATOL:
        problems.append(f"lambda {result.report.lam!r} is not n/m")
    if marginal_residual(chi, n, m) > MARGINAL_TOL:
        problems.append("marginals are not maximally mixed")
    gap = connection_gap(rho, chi, np.asarray(result.scalers.psi0), np.asarray(result.scalers.psi1))
    if not gap <= CONNECTION_TOL:
        problems.append(f"connection gap {gap:.3e}")
    return problems


def solve_digest(result) -> str:
    """Exact fingerprint of the arrays ``check_solve`` reads, so an output
    identical to one already checked need not be checked again."""
    h = hashlib.sha256()
    for arr in (result.report.phi_ray, result.chi.mat, result.scalers.psi0, result.scalers.psi1):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(repr(float(result.report.lam)).encode())
    return h.hexdigest()


def strip_doc(doc):
    """The document without the excluded keys, as stored in the reference."""
    if isinstance(doc, dict):
        return {k: strip_doc(v) for k, v in doc.items() if k not in EXCLUDED_KEYS}
    if isinstance(doc, list):
        return [strip_doc(v) for v in doc]
    return doc


def diff_doc(out, ref, path: str = "$") -> list[str]:
    """Differences between a stripped output document and its reference:
    keys, strings and booleans must be equal, numbers within DOC_TOL."""
    if isinstance(ref, dict):
        if not isinstance(out, dict):
            return [f"{path}: expected an object"]
        if set(out) != set(ref):
            return [f"{path}: keys {sorted(set(out) ^ set(ref))} differ"]
        found = []
        for key in ref:
            found += diff_doc(out[key], ref[key], f"{path}.{key}")
        return found
    if isinstance(ref, list):
        if not isinstance(out, list) or len(out) != len(ref):
            return [f"{path}: expected a list of {len(ref)}"]
        found = []
        for k, (a, b) in enumerate(zip(out, ref)):
            found += diff_doc(a, b, f"{path}[{k}]")
        return found
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        return [] if out == ref and type(out) is type(ref) else [f"{path}: {out!r} != {ref!r}"]
    if isinstance(out, bool) or not isinstance(out, (int, float)):
        return [f"{path}: expected a number"]
    if abs(out - ref) <= DOC_TOL * max(1.0, abs(ref)):
        return []
    return [f"{path}: {out!r} != {ref!r}"]


def stochastic_deviation(scaled: list) -> float:
    s = np.asarray(scaled, dtype=np.float64)
    return float(max(np.max(np.abs(s.sum(axis=1) - 1.0)), np.max(np.abs(s.sum(axis=0) - 1.0))))
