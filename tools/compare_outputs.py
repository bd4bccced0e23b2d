"""Compare every CLI output of two source trees, byte for byte.

    python3 tools/compare_outputs.py --parent REV [--change REV] > report.json

The parent tree is REV checked out with `git archive` into a temporary
directory; the change is the working tree that holds this script, or a
second revision checked out the same way.  Every checkout and the input
folder are removed when the run ends, also when a command fails.

The inputs are written once, from fixed seeds, and both trees read the
same files: FIX1-FIX5 (by name, and as coefficient files) and five seeded
spaces at d = 2..4 (`perfbench/workloads.random_potapov`, as Potapov and as
coefficient files), each with a Gaussian symbol on frequencies -1..1
(`workloads.random_coeffs`) and a zero symbol Theta Psi1 + (Theta Psi2)*
(`perfbench/oracles`).  Each payload's member operator is the parent's
`op build` of its Gaussian symbol; the tool adds 1e-5 G, G Gaussian of unit
spectral norm, for a non-member.  The matrix per payload: `dim`,
`inner check`, `space basis`, `op build`, and `symbol zero-test` on both
symbols and `op test` and `op recover` on both operators, each at the
default tolerance and at `--tol 1e-3`; then `suite` at seeds 0, 1, 7 and
42 under the default config and under the benchmark's (cases 1,
random_inners [[2, 2]]).  Each command runs twice in each tree, to stdout
and with `--out`, as its own process with the tree's `src` on PYTHONPATH
and one BLAS thread.

The report is one JSON document on stdout: for each run, whether stdout,
stderr, the exit status and the `--out` bytes are identical, the two exit
statuses, and for a JSON document that differs, each differing key path
with the largest relative move |change - parent| / max(|parent|, |change|) over that field's
numbers, and the two values where the field is one scalar.  A list of
numbers is one field (`entries`, `columns`); an entry of a list of named
objects is addressed by its name (`checks[reproducing_kernels]`).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]  # the input helpers, read and not changed
try:
    import oracles
    import workloads
    from mttokit.fixtures import FIXTURE_FACTORS
finally:
    del sys.path[:2]

SEEDED = ((2, (1, 2, 1), 1), (2, (2, 1, 1, 2), 2), (3, (2, 1, 3), 3), (3, (1, 3, 2, 2), 4), (4, (2, 3, 1), 5))
SUITE_SEEDS = (0, 1, 7, 42)
BENCHMARK_SUITE = {"cases": 1, "random_inners": [[2, 2]]}
TOLS = ((), ("--tol", "1e-3"))
PERTURBATION = 1e-5
WORKERS = 2


@dataclass
class Payload:
    """One Theta argument and the files the commands on it read."""

    name: str
    theta: str  # a fixture name or a payload file
    symbol: str
    zero_symbol: str
    operators: dict = field(default_factory=dict)  # "member" and "non-member" files, from the parent's op build


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def laurent_doc(f) -> dict:
    lo, coeffs = f
    return {"dim": coeffs.shape[1], "lo": lo, "coeffs": workloads._complex_json(coeffs)}


def potapov_doc(u, projections) -> dict:
    return {"schema_version": 1, "kind": "potapov", "left_unitary": workloads._complex_json(u),
            "factors": [workloads._complex_json(p) for p in projections]}


def coeffs_doc(theta) -> dict:
    return {"schema_version": 1, "kind": "coeffs", "laurent": laurent_doc(theta)}


def zero_symbol_of(theta, psi1, psi2):
    """Theta Psi1 + (Theta Psi2)*, a symbol of the zero operator."""
    return oracles.add(oracles.convolve(theta, psi1), oracles.star(oracles.convolve(theta, psi2)))


def write_inputs(folder: Path, names=None) -> list:
    """The payloads of the matrix, their files written into `folder`; `names`
    keeps those payloads alone (all when None)."""
    spaces = [(name, None, np.eye(len(factors[0])), factors, 100 + i)
              for i, (name, factors) in enumerate(FIXTURE_FACTORS.items())]
    for d, ranks, seed in SEEDED:
        u, projections = workloads.random_potapov(d, list(ranks), np.random.default_rng(seed))
        spaces.append((f"seeded-d{d}-{seed}", d, u, projections, seed))
    payloads = []
    for label, d, u, projections, seed in spaces:
        rng = np.random.default_rng([seed, 1])
        theta = oracles.potapov_theta(u, projections)
        dim = theta[1].shape[1]
        symbol = write_json(folder / f"{label}-symbol.json", laurent_doc((-1, workloads.random_coeffs(3, dim, rng))))
        psi1, psi2 = ((0, workloads.random_coeffs(2, dim, rng)) for _ in range(2))
        zero_symbol = write_json(folder / f"{label}-zero.json", laurent_doc(zero_symbol_of(theta, psi1, psi2)))
        potapov = label if d is None else write_json(folder / f"{label}-potapov.json", potapov_doc(u, projections))
        coeffs = write_json(folder / f"{label}-coeffs.json", coeffs_doc(theta))
        for kind, source in (("potapov", potapov), ("coeffs", coeffs)):
            payloads.append(Payload(f"{label}-{kind}", source, symbol, zero_symbol))
    return [p for p in payloads if names is None or p.name in names]


def environment(tree: Path) -> dict:
    """The environment of a command in `tree`: its `src` alone on PYTHONPATH, one BLAS thread."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run(tree: Path, argv, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "mttokit.cli", *argv], cwd=cwd, env=environment(tree),
                          capture_output=True, timeout=600)


def build_operators(parent: Path, payloads, folder: Path) -> None:
    """Each payload's member operator, written by the parent's `op build`,
    and the member plus 1e-5 G; a build that fails stops the run."""
    for p in payloads:
        member = folder / f"{p.name}-member.json"
        proc = run(parent, ["op", "build", "--theta", p.theta, "--symbol", p.symbol, "--out", str(member)], folder)
        if proc.returncode != 0:
            raise RuntimeError(f"parent op build on {p.name} exited {proc.returncode}: {proc.stderr.decode()!r}")
        doc = json.loads(member.read_text(encoding="utf-8"))
        entries = np.asarray(doc["entries"], dtype=float)
        a = entries[..., 0] + 1j * entries[..., 1]
        rng = np.random.default_rng(list(p.name.encode()))  # the same G whichever payloads are run
        g = rng.standard_normal(a.shape) + 1j * rng.standard_normal(a.shape)
        doc["entries"] = workloads._complex_json(a + PERTURBATION * g / np.linalg.norm(g, 2))
        p.operators = {"member": str(member), "non-member": write_json(folder / f"{p.name}-non-member.json", doc)}


def command_matrix(payloads, suite_configs=()) -> list:
    """The commands run on `payloads`, then `suite` under each (label, config file)."""
    commands = []
    for p in payloads:
        theta = ("--theta", p.theta)
        commands += [Command(f"{p.name} dim", ("dim", *theta)),
                     Command(f"{p.name} inner check", ("inner", "check", *theta)),
                     Command(f"{p.name} space basis", ("space", "basis", *theta)),
                     Command(f"{p.name} op build", ("op", "build", *theta, "--symbol", p.symbol))]
        for tol in TOLS:
            tag = " ".join(tol)
            for label, symbol in (("zero", p.zero_symbol), ("gaussian", p.symbol)):
                commands.append(Command(f"{p.name} symbol zero-test {label} {tag}".rstrip(),
                                        ("symbol", "zero-test", *theta, "--symbol", symbol, *tol)))
            for label, path in p.operators.items():
                for verb in ("test", "recover"):
                    commands.append(Command(f"{p.name} op {verb} {label} {tag}".rstrip(),
                                            ("op", verb, *theta, "--op", path, *tol)))
    for label, path in suite_configs:
        commands.append(Command(f"suite {label}", ("suite", "--config", path)))
    return commands


def suite_configs(folder: Path) -> list:
    configs = []
    for seed in SUITE_SEEDS:
        configs.append((f"default seed {seed}", write_json(folder / f"suite-default-{seed}.json", {"seed": seed})))
        configs.append((f"benchmark seed {seed}",
                        write_json(folder / f"suite-benchmark-{seed}.json", {"seed": seed, **BENCHMARK_SUITE})))
    return configs


def _leaves(doc, path=""):
    """(key path, leaf, whether the path names this one leaf) of a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            if isinstance(value, dict):
                yield from _leaves(value, f"{path}[{value.get('name', i)}]")
            else:
                for sub, leaf, _ in _leaves(value, path):
                    yield sub, leaf, False
    else:
        yield path, doc, True


def differences(parent, change) -> dict:
    """Each key path whose leaves differ: the largest relative move of its
    numbers, the two values where the path names one scalar, or the two
    leaf counts where the documents' shapes differ there."""
    by_path, single = {}, set()
    for side, doc in enumerate((parent, change)):
        for path, leaf, one in _leaves(doc):
            by_path.setdefault(path, ([], []))[side].append(leaf)
            if one:
                single.add(path)
    out = {}
    for path, (old, new) in by_path.items():
        if old == new and all(type(x) is type(y) for x, y in zip(old, new)):
            continue
        if len(old) != len(new):
            out[path] = {"parent_leaves": len(old), "change_leaves": len(new)}
            continue
        entry = {}
        moves = [abs(y - x) / max(abs(x), abs(y)) for x, y in zip(old, new) if _number(x) and _number(y) and x != y]
        if moves:
            entry["largest_relative_move"] = max(moves)
        if path in single:
            entry.update(parent=old[0], change=new[0])
        out[path] = entry
    return out


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _document(data: bytes):
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError:
        return None


def compare_one(parent: Path, change: Path, command: Command, folder: Path, index: int) -> list:
    """The two runs of a command, to stdout and with --out, each in both trees."""
    records = []
    for with_out in (False, True):
        out = folder / f"out-{index}.json"
        argv = (*command.argv, "--out", str(out)) if with_out else command.argv
        results = []
        for tree in (parent, change):
            proc = run(tree, argv, folder)
            results.append((proc, out.read_bytes() if out.exists() else None))
            out.unlink(missing_ok=True)
        (old, old_out), (new, new_out) = results
        same = {"stdout": old.stdout == new.stdout, "stderr": old.stderr == new.stderr,
                "status": old.returncode == new.returncode, "out": old_out == new_out}
        record = {"command": command.name + (" --out" if with_out else ""), "argv": list(argv),
                  "identical": all(same.values()), **same, "statuses": [old.returncode, new.returncode]}
        for key, x, y in (("stdout", old.stdout, new.stdout), ("out", old_out, new_out)):
            docs = _document(x or b""), _document(y or b"")
            if not same[key] and None not in docs:
                record[f"{key}_differences"] = differences(*docs)
        records.append(record)
    return records


def compare(parent: Path, change: Path, commands, folder: Path) -> dict:
    """Run `commands` in both trees and report every run."""
    with ThreadPoolExecutor(WORKERS) as pool:
        runs = [r for rs in pool.map(lambda ic: compare_one(parent, change, ic[1], folder, ic[0]),
                                     enumerate(commands)) for r in rs]
    return {"runs": len(runs), "identical": sum(r["identical"] for r in runs),
            "differing": [r["command"] for r in runs if not r["identical"]], "results": runs}


@contextlib.contextmanager
def checkout(rev: str, repo: Path = ROOT):
    """REV's committed tree in a temporary directory, removed on every exit."""
    folder = Path(tempfile.mkdtemp(prefix="compare-outputs-tree-"))
    try:
        archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar", rev],
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(folder, filter="data")
        yield folder
    finally:
        shutil.rmtree(folder, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, metavar="REV", help="revision whose outputs are the reference")
    parser.add_argument("--change", metavar="REV", help="revision to compare (default: the working tree)")
    args = parser.parse_args(argv)
    with contextlib.ExitStack() as stack:
        parent = stack.enter_context(checkout(args.parent))
        change = ROOT if args.change is None else stack.enter_context(checkout(args.change))
        folder = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="compare-outputs-inputs-")))
        payloads = write_inputs(folder)
        build_operators(parent, payloads, folder)
        report = {"parent": args.parent, "change": args.change or "working tree",
                  **compare(parent, change, command_matrix(payloads, suite_configs(folder)), folder)}
    sys.stdout.write(json.dumps(report, indent=1) + "\n")
    return 0 if not report["differing"] else 1


if __name__ == "__main__":
    sys.exit(main())
