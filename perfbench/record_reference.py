"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every input of each workload's development and held-out ensembles
once with the program in ``src/`` and writes ``perfbench/reference/``.
Record from the commit whose results later commits must reproduce; the
source digest stored with each file names that program.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported

import checks  # noqa: E402
import workloads  # noqa: E402


def record(name: str, held_out: bool) -> None:
    qc = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=run.WORK))
    try:
        wl = workloads.make(name, qc, work, 0, held_out)
        wl.prepare()
        entries = {}
        for op in wl.ops:
            entries[op.key] = wl.record(op, op.run())
        problems = [
            f"{op.key}: {p}" for op in wl.ops for p in wl.check(op, op.run(), entries).problems
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if problems:
        raise SystemExit(f"{name}: the recorded outputs fail their own checks: {problems[:5]}")
    doc = {
        "workload": name,
        "ensemble": "held-out" if held_out else "development",
        "source_digest": checks.source_digest(run.SRC),
        "entries": entries,
    }
    path = checks.save_reference(name, held_out, doc)
    print(f"{path.relative_to(run.ROOT)}: {len(entries)} entries")


def main(argv: list[str]) -> int:
    for name in argv or workloads.WORKLOADS:
        for held_out in (False, True):
            record(name, held_out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
