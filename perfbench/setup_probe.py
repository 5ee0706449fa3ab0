"""Set-up time of one fresh interpreter: from before ``import qcopula`` to
the end of the first operation. Prints the seconds as its last line.

    python3 setup_probe.py SRC library STATE.npy N M
    python3 setup_probe.py SRC cli ARGV...
"""

import sys
import time

start = time.perf_counter()
src, kind, *rest = sys.argv[1:]
sys.path.insert(0, src)
import qcopula  # noqa: E402
import qcopula.cli  # noqa: E402

if kind == "library":
    import numpy as np

    mat = np.load(rest[0])
    qcopula.copula_of(qcopula.DensityMatrix(mat, int(rest[1]), int(rest[2])))
elif kind == "cli":
    code = qcopula.cli.main(rest)
    if code != 0:
        sys.exit(f"warm-up call exited with {code}")
else:
    sys.exit(f"unknown probe kind {kind!r}")
print(repr(time.perf_counter() - start))
