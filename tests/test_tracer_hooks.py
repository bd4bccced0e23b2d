"""The benchmark's layer tracer still finds every name it hooks in src/.

`perfbench/tracer.py` wraps mttokit functions and classes by name with
`getattr`, so renaming or deleting one of them in src/ breaks every
traced benchmark run (`--trace 1`).  This runs the tracer in a fresh
process against src/, makes one traced build, one membership test and a
one-case suite, calls the hooked helpers again directly (the kernels on
a vector, J, which none of them reaches, and `coords` on a window), and
checks that every hooked layer was counted.  The kernels and `coords`
are the window functions the suite itself runs, so the one-case suite
alone counts them.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {perfbench!r}]
import numpy as np
import mttokit.cli  # noqa: F401  (install wraps the modules already imported)
import tracer as tracer_module
tracer = tracer_module.Tracer().install()
from mttokit.laurent import MatLaurent
from mttokit.model_operator import j_operators
from mttokit.model_space import ModelSpaceBasis, kernel, tilde_kernel
from mttokit.mtto import build, is_mtto
from mttokit.randgen import random_inner
from mttokit.suite import SuiteConfig, run_suite
basis = ModelSpaceBasis(random_inner(2, 2, np.random.default_rng(0)))
op = build(basis, MatLaurent.identity(2))
assert is_mtto(basis, op.mat).verdict
before = dict(tracer.calls)
assert run_suite(SuiteConfig(seed=1, cases=1, fixtures=("FIX2",), random_inners=()))["pass"]
suite_calls = {{layer: count - before.get(layer, 0) for layer, count in tracer.calls.items()}}
kernel(basis.inner, 0.3, [1.0, 0.0])
tilde_kernel(basis.inner, 0.3, [1.0, 0.0])
j_operators(basis)
basis.coords(np.ones((basis.inner.m, 2)))
layers = [row[0] for row in tracer_module.TIMED + tracer_module.TIMED_INIT + tracer_module.COUNTED]
layers += [tracer_module.SERIALIZE[0], "model_space.coords", "laurent.objects"]
print(json.dumps({{"layers": layers, "calls": dict(tracer.calls), "suite_calls": suite_calls}}))
"""


def test_tracer_installs_and_counts_the_hooked_layers():
    script = SCRIPT.format(src=str(ROOT / "src"), perfbench=str(ROOT / "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    calls = doc["calls"]
    for layer in ("mtto.build", "mtto.is_mtto", "suite.run_suite"):
        assert calls.get(layer, 0) >= 1, layer
    missing = {layer for layer in doc["layers"] if calls.get(layer, 0) == 0}
    # nothing in src/ calls solve_min_norm or nullspace any more, and the CLI is not run here
    assert missing <= {"numerics.solve_min_norm", "numerics.nullspace", "cli.main"}, missing
    for layer in ("model_space.kernel", "model_space.coords"):
        assert doc["suite_calls"].get(layer, 0) >= 1, layer
