"""qcopula benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
``src/``; nothing is installed. Each run prepares the workload's inputs,
times set-up in fresh interpreters, then runs as many whole passes over the
inputs as come nearest to ``--seconds`` of timed work, and checks every output against
the reference recorded in ``perfbench/reference``. ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics instead of the
end-to-end ones. ``--workload all`` runs the four workloads one after the
other, each in its own process. ``--held-out`` switches to the held-out
input ensembles. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# Pin the BLAS to one thread and measure the program's default serial path;
# both must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QCOPULA_THREADS", None)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 900
ROTATE_S = 0.5

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

MODULE_TOTALS = ("copula", "choi", "pmetric", "states", "matcore", "sinkhorn", "jsonio", "cli")
FUNCTION_METRICS = (
    "copula.copula_of.calls",
    "copula.copula_of.self_ms",
    "copula.fixed_point_iterate.calls",
    "copula.fixed_point_iterate.self_ms",
    "copula.extract_scalers.self_ms",
    "choi.apply.calls",
    "choi.apply.self_ms",
    "choi.apply_adjoint.calls",
    "choi.apply_adjoint.self_ms",
    "choi.choi_from_state.self_ms",
    "pmetric.hilbert_distance.calls",
    "pmetric.hilbert_distance.self_ms",
    "states.DensityMatrix.calls",
    "states.DensityMatrix.self_ms",
    "states.marginal_residuals.self_ms",
    "states.ppt_verdict.calls",
    "states.ppt_verdict.self_ms",
    "states.state_from_dict.self_ms",
    "matcore.cholesky_like_factor.self_ms",
    "matcore.kron.self_ms",
    "sinkhorn.sinkhorn_scale.calls",
    "sinkhorn.sinkhorn_scale.self_ms",
    "jsonio.canonical_dumps.self_ms",
    "jsonio.pairs_to_complex.self_ms",
    "jsonio.real_matrix_from_json.self_ms",
    "cli.main.calls",
    "cli.main.self_ms",
)
COUNTER_METRICS = (
    ("copula.iterations_sum", "count"),
    ("copula.iterations_p50", "count"),
    ("copula.iterations_max", "count"),
    ("copula.not_converged", "count"),
    ("sinkhorn.iterations_sum", "count"),
    ("cli.output_identical", "count"),
    ("cli.outputs", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.wrapped_self_ms", "ms"),
    ("trace.unwrapped_ms", "ms"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.spans", "count"),
)


def _unit(name: str) -> str:
    return "ms" if name.endswith("_ms") else "count"


PER_LAYER = (
    tuple((f"{mod}.{kind}", _unit(kind)) for mod in MODULE_TOTALS for kind in ("calls", "self_ms"))
    + tuple((name, _unit(name)) for name in FUNCTION_METRICS)
    + COUNTER_METRICS
)


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: error: {message}\n")
    return 2


def load_program() -> SimpleNamespace:
    """Import qcopula from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    qc = SimpleNamespace(
        **{name: importlib.import_module(f"qcopula.{name}") for name in ("copula", "states", "cli")}
    )
    origin = Path(qc.copula.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"qcopula was imported from {origin}, not from {SRC}")
    return qc


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.held_out,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "qcopula_threads": os.environ.get("QCOPULA_THREADS", "unset"),
    }


class CoreRotation:
    """Moves this process to the next allowed CPU on each ``step``.

    On a shared host one core can run much slower than the other for
    minutes, and a process tends to stay where it started, so a run that
    never moves measures whichever core it landed on. Rotating every
    ROTATE_S seconds gives every run the same mix of the cores.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def step(self) -> None:
        if len(self.cpus) > 1:
            self.turn += 1
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})

    def release(self) -> None:
        os.sched_setaffinity(0, set(self.cpus))


def measure_setup(probe_args: list[str], cores: CoreRotation) -> list[float]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, run one at a time
    on the cores in turn."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + probe_args
    times = []
    for _ in range(SETUP_PROBES):
        cores.step()
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_pass(ops, tracer, cores: CoreRotation) -> tuple[list, list[float], float]:
    """One closed-loop pass: each operation starts when the last returns.

    Between operations, every ROTATE_S seconds, the process moves to the
    next core, outside every timed interval. Returns the outputs, the
    latencies and the pass time.
    """
    clock = time.perf_counter
    outputs, latencies = [], []
    wall = 0.0
    chunk_start = clock()
    for k, op in enumerate(ops):
        t0 = clock()
        try:
            out = op.run() if tracer is None else tracer.run_op(k, op.run)
        except Exception as exc:  # a raising operation is a failed operation
            out = exc
        latencies.append(clock() - t0)
        outputs.append(out)
        elapsed = clock() - chunk_start
        if elapsed >= ROTATE_S or k == len(ops) - 1:
            wall += elapsed
            cores.step()
            chunk_start = clock()
    return outputs, latencies, wall


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def layer_snapshot(tracer, wall: float) -> dict:
    """Per-layer metrics of one traced pass (times in ms)."""
    calls = dict(zip(tracer.names, tracer.calls))
    self_ms = {name: s * 1e3 for name, s in zip(tracer.names, tracer.self_s)}
    snap = {}
    for mod in MODULE_TOTALS:
        names = [n for n in tracer.names if n.startswith(mod + ".")]
        snap[f"{mod}.calls"] = sum(calls[n] for n in names)
        snap[f"{mod}.self_ms"] = sum(self_ms[n] for n in names)
    for metric in FUNCTION_METRICS:
        fn, kind = metric.rsplit(".", 1)
        snap[metric] = calls.get(fn, 0) if kind == "calls" else self_ms.get(fn, 0.0)
    its = sorted(tracer.fixed_point_iterations)
    snap["copula.iterations_sum"] = sum(its)
    snap["copula.iterations_p50"] = percentile(its, 50) if its else 0.0
    snap["copula.iterations_max"] = its[-1] if its else 0
    snap["copula.not_converged"] = tracer.not_converged
    snap["sinkhorn.iterations_sum"] = sum(tracer.sinkhorn_iterations)
    unwrapped = self_ms.get(tracing.OP_SPAN, 0.0)
    wrapped = sum(v for n, v in self_ms.items() if n != tracing.OP_SPAN)
    snap["trace.wall_ms"] = wall * 1e3
    snap["trace.wrapped_self_ms"] = wrapped
    snap["trace.unwrapped_ms"] = unwrapped
    snap["trace.accounted_ratio"] = (wrapped + unwrapped) / (wall * 1e3)
    snap["trace.spans"] = sum(calls.values())
    return snap


def run_workload(args) -> int:
    try:
        qc = load_program()
    except ImportError as exc:
        return fail(f"cannot import the program from {SRC}: {exc}")
    try:
        reference = checks.load_reference(args.workload, args.held_out)
    except OSError as exc:
        return fail(f"cannot read the reference: {exc}")
    env = environment(args)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.make(args.workload, qc, work, args.seed, args.held_out)
        wl.prepare()
        entries = reference["entries"]
        missing = [op.key for op in wl.ops if op.key not in entries]
        if missing:
            return fail(f"no reference for {missing[:3]}")
        cores = CoreRotation()
        setup = measure_setup(wl.probe_args, cores)
        wl.warmup()

        tracer = tracing.Tracer() if args.trace else None
        attempted = failed = 0
        problems: list[str] = []
        identical: list[int] = []
        documents: list[int] = []
        plain, traced_passes, snapshots, latencies = [], [], [], []
        timed = 0.0
        while True:
            traced = bool(args.trace) and len(plain) > len(traced_passes)
            installed = tracing.install(tracer) if traced else None
            try:
                outputs, lat, wall = run_pass(wl.ops, tracer if traced else None, cores)
            finally:
                if installed is not None:
                    installed.uninstall()
            timed += wall
            if traced:
                traced_passes.append(wall)
                snapshots.append(layer_snapshot(tracer, wall))
                tracer.reset_totals()
                tracer.keep_spans = False
            else:
                plain.append(wall)
                latencies.extend(lat)
            same, docs = 0, 0
            for op, out in zip(wl.ops, outputs):
                attempted += op.cases
                if isinstance(out, Exception):
                    outcome = workloads.Outcome(op.cases, [f"raised {out!r}"])
                else:
                    outcome = wl.check(op, out, entries)
                failed += outcome.failed_cases
                problems += [f"{op.key}: {p}" for p in outcome.problems]
                same += outcome.identical
                docs += outcome.documents
            identical.append(same)
            documents.append(docs)
            # Let this pass's outputs go before the next pass makes its own,
            # so peak RSS holds one pass of results, as a caller would.
            del outputs
            # Stop where the timed work comes nearest to --seconds: when the
            # next pass (with its traced twin) would overshoot by more than
            # stopping now falls short.
            balanced = not args.trace or len(plain) == len(traced_passes)
            if balanced and timed + timed / len(plain) / 2 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cores.release()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    cases_per_pass = sum(op.cases for op in wl.ops)

    # The suite's per-case times are visible only inside the program, so its
    # latency samples are whole passes of the four suites.
    samples_ms = [x * 1e3 for x in (plain if args.workload == "suite" else latencies)]
    tail = percentile(samples_ms, wl.tail_percentile)
    e2e = {
        "setup_s": statistics.median(setup),
        "throughput_per_s": cases_per_pass * len(plain) / sum(plain),
        "latency_ms_p50": percentile(samples_ms, 50),
        "latency_ms_tail": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {args.workload}: {len(plain)} untraced and {len(traced_passes)} traced "
        f"passes of {len(wl.ops)} calls ({cases_per_pass} operations); "
        f"untraced pass seconds {[round(w, 3) for w in plain]}"
    )
    for name, unit in END_TO_END:
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} fresh interpreters)"
        elif name == "latency_ms_tail":
            beyond = sum(1 for x in samples_ms if x > tail)
            note = f"  (p{wl.tail_percentile:g} of {len(samples_ms)} samples, {beyond} beyond)"
        elif name.startswith("latency") and args.workload == "suite":
            note = "  (one sample per pass of the four suites)"
        print(f"  {name} = {e2e[name]:.6g} {unit}{note}")
    print(f"  fail_ratio = {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    print(
        f"  cli.output_identical = {statistics.median_low(identical)} of "
        f"{statistics.median_low(documents)} documents per pass"
    )
    for line in problems[:10]:
        print(f"  mismatch: {line}")

    if args.trace:
        layer = {}
        for name, unit in PER_LAYER:
            if name in snapshots[0]:
                middle = statistics.median_low if unit == "count" else statistics.median
                layer[name] = middle(s[name] for s in snapshots)
        layer["cli.output_identical"] = statistics.median_low(identical)
        layer["cli.outputs"] = statistics.median_low(documents)
        layer["trace.overhead_ratio"] = (
            statistics.median(traced_passes) / statistics.median(plain) - 1.0
        )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        spans = np.frombuffer(tracer.span_data, dtype=np.float64).reshape(-1, len(tracing.SPAN_FIELDS))
        np.savez_compressed(
            WORK / f"spans-{args.workload}.npz",
            names=np.asarray(tracer.names),
            **{field: spans[:, k] for k, field in enumerate(tracing.SPAN_FIELDS)},
        )
        for name, unit in PER_LAYER:
            print(f"  {name} = {layer[name]:.6g} {unit}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}

    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "env": env,
        "setup_s_samples": setup,
        "pass_s": plain,
        "traced_pass_s": traced_passes,
        "problems": problems[:100],
        **result,
    }
    (WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and set-up are its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--held-out"] if args.held_out else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return fail(f"workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="orders the inputs of each pass")
    parser.add_argument("--seconds", type=float, required=True, help="timed work per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--held-out", action="store_true", help="use the held-out input ensembles")
    args = parser.parse_args(argv)
    if not (SRC / "qcopula" / "__init__.py").is_file():
        return fail(f"no program source at {SRC}; run from the root of a qcopula checkout")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
