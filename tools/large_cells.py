"""Cold CLI cost of two source trees on the large cells.

    python3 tools/large_cells.py --parent REV [--change REV] [--cells NAME ...] [--pairs N] > report.json

The parent tree is REV checked out with `git archive` into a temporary
directory (`tools/compare_outputs.checkout`); the change is the working
tree that holds this script, or a second revision checked out the same
way.  Every checkout and the input folder are removed when the run ends,
also when a command fails.

Each cell's inputs are written once, from fixed seeds, and both trees read
the same files: Theta as a Potapov or a coefficient payload (drawn with
`perfbench/workloads.random_potapov` from seed 1), a symbol of degrees
-5..5 (`workloads.random_coeffs(11, d)`, seed 2), a zero symbol
Theta Psi1 + (Theta Psi2)* with Psi of degree 2, and the parent's `op build`
of the symbol with its perturbation by 1e-5 G (`compare_outputs.build_operators`)
as a member and a non-member.  `random_potapov` redraws until
||Theta(0)|| <= 0.95 and has no cap, so the draw runs in its own process
and a cell whose draw takes over DRAW_BUDGET_S is recorded as refused.

Each command runs as its own cold process with the tree's `src` alone on
PYTHONPATH and one BLAS thread, its stdout written to a file.  A pair runs
every command of the cell once in each tree, the parent first in even
pairs and the change first in odd ones.  Per command and tree the report
gives, over the pairs, the wall time, the child's peak RSS (its VmHWM at
exit; Linux only), the bytes written to stdout and the exit status, with
their median and range, and the first stderr line of the last pair.
`--cells` takes names or shell patterns (`'n1000-*'`); the default runs
every cell of CELLS.
"""

from __future__ import annotations

import argparse
import contextlib
import fnmatch
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
try:
    from compare_outputs import (ROOT, Payload, build_operators, checkout, coeffs_doc, environment, laurent_doc,
                                 potapov_doc, workloads, write_json, zero_symbol_of)
finally:
    del sys.path[0]

DRAW_BUDGET_S = 60.0  # the largest admitted draw, d = 2 with 16384 factors, takes about 1 s
TIMEOUT_S = 1800.0  # a command still running after this is killed, its status recorded as "timeout"
ALL = ("dim", "inner check", "space basis", "op build", "op test member", "op test non-member",
       "op recover member", "op recover non-member", "symbol zero-test zero", "symbol zero-test non-zero")
THETA_ONLY = ("dim", "inner check", "symbol zero-test zero")
BELOW = 2.0 ** -511  # entries this small slow every later product (ROADMAP item 19)

# `mtto ARGS` as `python -m mttokit.cli` runs it, which at exit writes its peak RSS (VmHWM, in kB)
# to the file named first.  `getrusage` of the child would report at least this tool's own peak,
# because Linux carries the high-water mark of the memory the child shares until it execs.
_COLD = """import atexit, runpy, sys
def peak(path=sys.argv[1]):
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w", encoding="ascii") as fh:
        fh.write(kb)
atexit.register(peak)
sys.argv = ["mtto", *sys.argv[2:]]
runpy.run_module("mttokit.cli", run_name="__main__", alter_sys=True)
"""

# Run in the tree, on a coefficient payload: the share of Q's entries that are nonzero and below BELOW.
_Q_SHARE = """import sys
import numpy as np
from mttokit.model_space import InnerFunction, ModelSpaceBasis, theta_from_json
from mttokit.serialize import load_json_file
q = ModelSpaceBasis(InnerFunction(*theta_from_json(load_json_file(sys.argv[1])))).q
print(np.count_nonzero((q != 0) & (np.abs(q) < float(sys.argv[2]))) / q.size)
"""

# Run with perfbench on the path: one random_potapov draw, saved as the stack [U, P_1, ..., P_m].
_DRAW = """import json, sys
import numpy as np
import workloads
d, ranks, seed, path = json.loads(sys.argv[1])
u, projections = workloads.random_potapov(d, ranks, np.random.default_rng(seed))
np.save(path, np.concatenate([u[np.newaxis], projections]))
"""


@dataclass(frozen=True)
class Cell:
    name: str
    kind: str  # the payload kind, "potapov" or "coeffs"
    d: int
    ranks: tuple  # one rank per factor; n is their sum and m their count
    commands: tuple = ALL
    q_share: bool = False  # also record the share of Q's entries nonzero and below BELOW
    nested: tuple = ()  # (eps, count, seed) of the nested pairs of tests/test_conditioning_family, in place of a draw


def _both(name, d, rank, m, **kw):
    return [Cell(f"{name}-{kind}", kind, d, (rank,) * m, **kw) for kind in ("potapov", "coeffs")]


CELLS = (
    *_both("n240", 6, 3, 80), *_both("n500", 8, 4, 125), *_both("n1000", 8, 4, 250),
    Cell("edge-potapov", "potapov", 8, (7,) * 256), Cell("edge-coeffs", "coeffs", 8, (7,) * 256, q_share=True),
    *_both("d64", 64, 32, 30),
    Cell("d64-rank1", "potapov", 64, (1,) * 30),  # 30 hyperplanes of C^64 share a unit vector: no draw ends
    Cell("large-m-d4", "potapov", 4, (2,) * 4096, THETA_ONLY),
    Cell("large-m-d2", "potapov", 2, (1,) * 16384, THETA_ONLY),
    Cell("nested-coeffs", "coeffs", 3, (1, 2) * 8, nested=(7.7e-3, 16, 306)),  # Gram-Schmidt needs the repair here
    *(Cell(f"grid-d{d}-m{m}", "potapov", d, (-(-d // 2),) * m) for d in (1, 2, 4, 8) for m in (2, 4, 8, 16)),
)


def theta_coefficients(u, projections) -> np.ndarray:
    """The m + 1 coefficients of U (I - P_1 + z P_1) ... (I - P_m + z P_m),
    one matrix product per factor (`oracles.potapov_theta` forms the same
    running product block by block, about 5 minutes at m = 16384)."""
    d = u.shape[0]
    h = np.zeros((len(projections) + 1, d, d), dtype=np.complex128)
    h[0] = u
    for j, p in enumerate(projections):
        hp = (h[: j + 1].reshape(-1, d) @ p).reshape(-1, d, d)
        h[: j + 1] -= hp
        h[1 : j + 2] += hp
    return h


def _draw(cell: Cell, folder: Path, budget: float):
    """(U, the P_j) of `cell`, or None when the draw outlasts `budget` seconds."""
    if cell.nested:
        sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
        try:
            from test_conditioning_family import nested_pairs_d3
        finally:
            del sys.path[:2]
        return np.eye(cell.d), nested_pairs_d3(*cell.nested)
    path = folder / f"{cell.name}-draw.npy"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "perfbench"), OPENBLAS_NUM_THREADS="1")
    try:
        subprocess.run([sys.executable, "-c", _DRAW, json.dumps([cell.d, list(cell.ranks), 1, str(path)])],
                       env=env, check=True, capture_output=True, timeout=budget)
    except subprocess.TimeoutExpired:
        return None
    stack = np.load(path)
    return stack[0], list(stack[1:])


def write_cell(cell: Cell, folder: Path, budget: float = DRAW_BUDGET_S):
    """The cell's payload, its files written into `folder`, or None when its draw was refused."""
    drawn = _draw(cell, folder, budget)
    if drawn is None:
        return None
    u, projections = drawn
    theta = (0, theta_coefficients(u, projections))
    rng = np.random.default_rng(2)

    def write(label, doc):
        return write_json(folder / f"{cell.name}-{label}.json", doc)

    symbol = write("symbol", laurent_doc((-5, workloads.random_coeffs(11, cell.d, rng))))
    psi1, psi2 = ((0, workloads.random_coeffs(3, cell.d, rng)) for _ in range(2))
    zero = write("zero", laurent_doc(zero_symbol_of(theta, psi1, psi2)))
    doc = potapov_doc(u, projections) if cell.kind == "potapov" else coeffs_doc(theta)
    return Payload(cell.name, write("theta", doc), symbol, zero)


def argv_of(command: str, p: Payload) -> list:
    """The CLI arguments of a command of ALL on payload `p`."""
    words = command.split()
    if words[0] == "symbol":
        symbol = p.zero_symbol if words[2] == "zero" else p.symbol
        return ["symbol", "zero-test", "--theta", p.theta, "--symbol", symbol]
    if words[0] == "op" and words[1] != "build":
        return ["op", words[1], "--theta", p.theta, "--op", p.operators[words[2]]]
    return [*words, "--theta", p.theta, *(["--symbol", p.symbol] if words[1:] == ["build"] else [])]


def _exited(pid: int, timeout: float) -> bool:
    """Whether child `pid` exits within `timeout` seconds, seen as soon as it
    does (`Popen.wait` with a timeout polls, at up to 50 ms a step)."""
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def run_cold(tree: Path, argv, folder: Path) -> dict:
    """One cold run of `mtto argv` in `tree`: wall time, peak RSS, bytes on stdout, exit status, stderr."""
    out, err, peak = folder / "stdout", folder / "stderr", folder / "peak"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _COLD, str(peak), *argv], cwd=folder, env=environment(tree),
                                stdout=fo, stderr=fe)
        exited = _exited(proc.pid, TIMEOUT_S)
        wall = time.perf_counter() - start
        if not exited:
            proc.kill()
        status = proc.wait() if exited else "timeout"
    record = {"wall_s": wall, "peak_rss_mb": int(peak.read_text()) / 1024 if peak.exists() else None,
              "bytes": out.stat().st_size, "status": status,
              "stderr": err.read_text(encoding="utf-8", errors="replace").partition("\n")[0]}
    for path in (out, err, peak):
        path.unlink(missing_ok=True)
    return record


def _summary(runs) -> dict:
    out = {key: [r[key] for r in runs] for key in ("wall_s", "peak_rss_mb", "bytes", "status")}
    for key in ("wall_s", "peak_rss_mb", "bytes"):
        values = [v for v in out[key] if v is not None]  # a run that timed out has no peak RSS
        out[f"{key}_median"] = statistics.median(values) if values else None
        out[f"{key}_range"] = [min(values), max(values)] if values else None
    out["stderr"] = runs[-1]["stderr"]
    return out


def q_share(tree: Path, theta: str, folder: Path) -> float:
    proc = subprocess.run([sys.executable, "-c", _Q_SHARE, theta, repr(BELOW)], cwd=folder, env=environment(tree),
                          capture_output=True, check=True, timeout=TIMEOUT_S, text=True)
    return float(proc.stdout)


def measure(parent: Path, change: Path, cells, pairs: int, folder: Path, budget: float = DRAW_BUDGET_S) -> list:
    """One record per cell: how its inputs were drawn and, unless the draw
    was refused, each command's runs in both trees."""
    records = []
    trees = {"parent": parent, "change": change}
    for cell in cells:
        print(f"large_cells: {cell.name}", file=sys.stderr, flush=True)
        start = time.perf_counter()
        payload = write_cell(cell, folder, budget)
        record = {"name": cell.name, "kind": cell.kind, "d": cell.d, "m": len(cell.ranks), "n": sum(cell.ranks),
                  "input_s": time.perf_counter() - start}
        records.append(record)
        if payload is None:
            record["refused"] = f"the input draw ran past its budget of {budget:g} s"
            continue
        if any(c.startswith(("op test", "op recover")) for c in cell.commands):
            build_operators(parent, [payload], folder)
        runs = {(c, side): [] for c in cell.commands for side in trees}
        for i in range(pairs):
            for command in cell.commands:
                for side in ("parent", "change")[:: 1 if i % 2 == 0 else -1]:
                    runs[command, side].append(run_cold(trees[side], argv_of(command, payload), folder))
        record["commands"] = [{"command": c, **{side: _summary(runs[c, side]) for side in trees}}
                              for c in cell.commands]
        if cell.q_share:
            record["q_share_below_2^-511"] = {side: q_share(tree, payload.theta, folder)
                                              for side, tree in trees.items()}
    return records


def select_cells(patterns) -> list:
    if not patterns:
        return list(CELLS)
    chosen = [c for c in CELLS if any(fnmatch.fnmatchcase(c.name, p) for p in patterns)]
    unknown = [p for p in patterns if not any(fnmatch.fnmatchcase(c.name, p) for c in CELLS)]
    if unknown:
        raise SystemExit(f"large_cells: no cell matches {unknown}; cells: {', '.join(c.name for c in CELLS)}")
    return chosen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="revision measured as the parent")
    parser.add_argument("--change", metavar="REV", help="revision measured as the change (default: the working tree)")
    parser.add_argument("--cells", nargs="+", metavar="NAME", help="cell names or shell patterns (default: every cell)")
    parser.add_argument("--pairs", type=int, default=3, metavar="N", help="parent/change pairs per cell (default: 3)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    cells = select_cells(args.cells)
    with contextlib.ExitStack() as stack:
        parent = stack.enter_context(checkout(args.parent))
        change = ROOT if args.change is None else stack.enter_context(checkout(args.change))
        folder = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="large-cells-inputs-")))
        report = {"parent": args.parent, "change": args.change or "working tree", "pairs": args.pairs,
                  "draw_budget_s": DRAW_BUDGET_S, "cells": measure(parent, change, cells, args.pairs, folder)}
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
