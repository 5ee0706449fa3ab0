"""Tests of the benchmark's own tracing and its BENCHMARK.json.

    python3 -m pytest perfbench/tests -q

The completeness test runs a tiny input through every path the workloads
use, with the tracing wrappers installed and ``sys.setprofile`` counting
calls of the same code objects. A binding that ``install`` misses (say, a
function imported by name into a new module, or captured in a closure)
makes the profiler count calls the wrappers did not see.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qcopula import cli, copula, states  # noqa: E402


def _tiny_run(tmp: Path) -> None:
    mat = workloads.wishart_state(2, 2, 1)
    copula.copula_of(states.DensityMatrix(mat, 2, 2))
    state = tmp / "state.json"
    state.write_text(json.dumps({"dims": [2, 3], "matrix": _pairs(workloads.wishart_state(2, 3, 2))}))
    matrix = tmp / "matrix.json"
    matrix.write_text(json.dumps({"matrix": workloads.positive_matrix(4, [0, 4, 0]).tolist()}))
    out = str(tmp / "out.json")
    assert cli.main(["copula", str(state), "--output", out]) == 0
    assert cli.main(["classical", str(matrix), "--output", out]) == 0
    for suite, dims, _count in workloads.SUITES:
        code = cli.main(["experiment", suite, "--count", "2", "--dims", f"{dims[0]},{dims[1]}", "--output", out])
        assert code in (0, 1)


def _pairs(mat: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row] for row in mat]


def test_wrapper_counts_match_profiler(tmp_path):
    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    profiled: Counter = Counter()
    code_names = installed.code_names

    def profile(frame, event, _arg):
        if event == "call":
            name = code_names.get(frame.f_code)
            if name is not None:
                profiled[name] += 1

    sys.setprofile(profile)
    try:
        _tiny_run(tmp_path)
    finally:
        sys.setprofile(None)
        installed.uninstall()
    wrapped = Counter({n: c for n, c in zip(tracer.names, tracer.calls) if c})
    assert profiled, "the profiler saw no wrapped code object"
    assert wrapped == profiled
    for name in ("copula.copula_of", "pmetric.hilbert_distance", "sinkhorn.sinkhorn_scale",
                 "jsonio.canonical_dumps", "cli.main", "states.DensityMatrix"):
        assert wrapped[name] > 0, name


def test_uninstall_restores_every_binding():
    before = {id(mod): dict(vars(mod)) for mod in (cli, copula, states)}
    init = states.DensityMatrix.__init__
    tracing.install(tracing.Tracer()).uninstall()
    for mod in (cli, copula, states):
        after = vars(mod)
        assert all(after[k] is v for k, v in before[id(mod)].items())
    assert states.DensityMatrix.__init__ is init


def test_self_times_nest():
    tracer = tracing.Tracer()

    def inner():
        return None

    wrapped_inner = tracer.wrap(inner, "m.inner")
    wrapped_outer = tracer.wrap(lambda: [wrapped_inner(), wrapped_inner()], "m.outer")
    tracer.run_op(0, wrapped_outer)
    names = dict(zip(tracer.names, zip(tracer.calls, tracer.self_s)))
    assert names["m.inner"][0] == 2 and names["m.outer"][0] == 1
    rows = np.frombuffer(tracer.span_data).reshape(-1, len(tracing.SPAN_FIELDS))
    assert len(rows) == 4
    by_index = {int(r[0]): r for r in rows}
    total = by_index[0][5] - by_index[0][4]
    assert abs(sum(tracer.self_s) - total) < 1e-9


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
