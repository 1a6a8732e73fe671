"""ROADMAP baseline cases, each timed once in a fresh process.

    python3 bench/baseline.py

Prints one line per case: wall time and the peak RSS of the process that
ran it.  BLAS runs single-threaded, as in the benchmark.  G(400) and G(800)
are left out: G(400) needs about 5 GB, and G(800) asks for more memory
than a 7 GB machine has.  For G(800) the script prints the size of the
oracle's grid x support array, computed from the grid rule without
building the array.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time

from run import ROOT, child_env

CASE = r"""
import sys, numpy as np, qwsed
from qwsed.graphs import WeightedGraph
n = int(sys.argv[1])
rng = np.random.default_rng(n)
upper = np.triu(rng.random((n, n)) < 0.1, k=1)
g = WeightedGraph(n, tuple((int(u), int(v), 1.0) for u, v in zip(*np.nonzero(upper))))
qwsed.classify(g, 0)
"""

CASES = (
    ("classify, random G(100, 0.1)", ["-c", CASE, "100"], {}),
    ("classify, random G(200, 0.1)", ["-c", CASE, "200"], {}),
    ("analyze --family lollipop:20,10 --vertex all",
     ["-m", "qwsed.cli", "analyze", "--family", "lollipop:20,10", "--vertex", "all",
      "--out", os.devnull], {}),
    ("family-scan --family path:20..40, QWSED_THREADS=1",
     ["-m", "qwsed.cli", "family-scan", "--family", "path:20..40", "--out", os.devnull],
     {"QWSED_THREADS": "1"}),
    ("family-scan --family path:20..40, QWSED_THREADS=2",
     ["-m", "qwsed.cli", "family-scan", "--family", "path:20..40", "--out", os.devnull],
     {"QWSED_THREADS": "2"}),
)


def g800_grid_bytes() -> tuple[int, int, float]:
    """Grid points, support size and bytes of one grid x support complex
    array for vertex 0 of the G(800, 0.1) the CASE script would build.

    qwsed's own decomposition is not used: it keeps one dense projector per
    distinct eigenvalue, about 4 GB here.  numpy's eigh gives the spread
    and the support, and the grid comes from qwsed's grid rule."""
    import numpy as np
    from qwsed import WalkEvaluator
    from qwsed.walk import DEFAULT_WINDOW

    n = 800
    rng = np.random.default_rng(n)
    upper = np.triu(rng.random((n, n)) < 0.1, k=1).astype(float)
    vals, vecs = np.linalg.eigh(upper + upper.T)
    k = int(np.sum(np.abs(vecs[0]) > 1e-10))
    points = WalkEvaluator._grid_size(None, DEFAULT_WINDOW, float(vals[-1] - vals[0]), None)
    return points, k, points * k * 16.0


def main() -> int:
    for label, argv, env in CASES:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], env={**child_env(), **env},
                                cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        if proc.returncode != 0:
            print(f"{label}: exited with code {proc.returncode}")
            return 1
        print(f"{label}: {wall:.2f} s, peak RSS {usage.ru_maxrss * 1024 / 1e9:.2f} GB",
              flush=True)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    points, k, nbytes = g800_grid_bytes()
    print(f"classify, random G(800, 0.1): not run; the oracle grid has {points} "
          f"points x {k} support eigenvalues = {nbytes / 2**30:.1f} GiB per "
          f"complex array ({math.ceil(nbytes / 1e9)} GB)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
