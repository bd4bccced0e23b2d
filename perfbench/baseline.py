"""Measure once, with the layer timers, the single-call sizes of the
ROADMAP baseline table: build at n = 36, recover_symbol at n = 25,
mtto_dimension at n = 23, InnerFunction at d = 8, and `import mttokit`.

    python3 perfbench/baseline.py

Run from the root of a source checkout; the BLAS thread pin is set here.
Prints one line per row: wall time of the call and the layers with the
largest self time inside it.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import mttokit  # noqa: E402
import mttokit.cli  # noqa: E402, F401  (the tracer wraps cli.main)
from tracer import Tracer  # noqa: E402
from workloads import random_coeffs, random_potapov  # noqa: E402

ROWS = [
    ("build", 6, [4, 4, 3, 4, 3, 4, 3, 4, 3, 4]),  # n = 36, m = 10
    ("recover_symbol", 4, [3, 3, 3, 3, 3, 3, 3, 4]),  # n = 25, m = 8
    ("mtto_dimension", 4, [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1, 2]),  # n = 23, m = 12
    ("InnerFunction", 8, [2, 2, 2, 2]),  # d = 8, m = 4
]


def main() -> int:
    runs = []
    for _ in range(5):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import mttokit"], env=dict(os.environ, PYTHONPATH=SRC), check=True)
        runs.append(time.perf_counter() - t0)
    print(f"import mttokit (fresh interpreter, median of 5): {statistics.median(runs) * 1e3:.1f} ms")

    tracer = Tracer().install()
    rng = np.random.default_rng(2024)
    for what, d, ranks in ROWS:
        u, projections = random_potapov(d, ranks, rng)
        if what == "InnerFunction":
            tracer.reset()
            t0 = time.perf_counter()
            mttokit.make_inner_potapov(projections, u)
        else:
            basis = mttokit.ModelSpaceBasis(mttokit.make_inner_potapov(projections, u))
            phi = mttokit.MatLaurent(-2, random_coeffs(5, d, rng))
            a = mttokit.build(basis, phi) if what == "recover_symbol" else None
            tracer.reset()
            t0 = time.perf_counter()
            if what == "build":
                mttokit.build(basis, phi)
            elif what == "recover_symbol":
                mttokit.recover_symbol(basis, a)
            else:
                mttokit.mtto_dimension(basis)
        wall = time.perf_counter() - t0
        top = sorted(tracer.self_s.items(), key=lambda kv: -kv[1])[:4]
        layers = ", ".join(f"{name} {s * 1e3:.1f} ms ({tracer.calls[name]} calls)" for name, s in top)
        print(f"{what} d={d} n={sum(ranks)} m={len(ranks)}: {wall * 1e3:.1f} ms; "
              f"laurent objects {tracer.calls['laurent.objects']}; self time: {layers}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
