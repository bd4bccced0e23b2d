"""What the command line writes: one line of `serialize.canonical_json` on
stdout for every subcommand, and on stderr nothing or exactly one
`{"error", "message"}` line, also for inputs that overflow in numpy.
`symbol zero-test` writes what the Laurent-object division by Theta wrote.

pytest's warning capture keeps numpy's RuntimeWarnings out of `capsys`,
so the stderr contract is checked on `python -m mttokit.cli` in a
subprocess.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mttokit import cli, laurent, serialize
from mttokit.cli import main
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, inner_residual, is_inner, is_pure, multiply, purity_margin
from mttokit.model_space import ModelSpaceBasis, theta_from_json
from mttokit.mtto import build
from mttokit.randgen import random_symbol

import division_oracles

ROOT = Path(__file__).resolve().parents[1]


def _inputs(tmp_path, name):
    """Symbol, member operator and zero-symbol files for fixture `name`."""
    inner = fixture(name)
    d = inner.d
    symbol = MatLaurent(-1, np.stack([np.eye(d), 0.5 * np.eye(d), np.eye(d)[::-1]]))
    paths = {"symbol": tmp_path / "symbol.json", "op": tmp_path / "op.json", "zero": tmp_path / "zero.json"}
    serialize.dump_json_file(paths["symbol"], serialize.laurent_to_json(symbol))
    serialize.dump_json_file(paths["op"], build(ModelSpaceBasis(inner), symbol).to_json())
    serialize.dump_json_file(paths["zero"], serialize.laurent_to_json(inner.theta))
    return {k: str(v) for k, v in paths.items()}


_COMMANDS = {
    "inner check": ("inner", "check", "--theta", "{theta}"),
    "space basis": ("space", "basis", "--theta", "{theta}"),
    "op build": ("op", "build", "--theta", "{theta}", "--symbol", "{symbol}"),
    "op test": ("op", "test", "--theta", "{theta}", "--op", "{op}"),
    "op recover": ("op", "recover", "--theta", "{theta}", "--op", "{op}"),
    "symbol zero-test": ("symbol", "zero-test", "--theta", "{theta}", "--symbol", "{zero}"),
    "dim": ("dim", "--theta", "{theta}"),
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_stdout_is_one_canonical_json_line(tmp_path, capsys, command, name):
    argv = [a.format(theta=name, **_inputs(tmp_path, name)) for a in _COMMANDS[command]]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert captured.out == serialize.canonical_json(json.loads(captured.out)) + "\n"


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_a_fixture_name_and_its_file_give_the_same_bytes(tmp_path, capsys, command, name):
    inputs, path = _inputs(tmp_path, name), tmp_path / "theta.json"
    serialize.dump_json_file(path, fixture(name).to_json())
    runs = []
    for theta in (name, str(path)):
        code = main([a.format(theta=theta, **inputs) for a in _COMMANDS[command]])
        runs.append((code, *capsys.readouterr()))
    assert runs[0] == runs[1]


def test_suite_and_out_file_are_canonical_json(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["suite", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out == serialize.canonical_json(json.loads(out)) + "\n"
    assert main(["suite", "--seed", "7", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == "" and out_path.read_text(encoding="utf-8") == out


def test_errors_are_one_canonical_json_line(capsys):
    assert main(["dim", "--theta", "/nonexistent/theta.json"]) == 2
    err = capsys.readouterr().err
    assert err == serialize.canonical_json(json.loads(err)) + "\n"
    assert sorted(json.loads(err)) == ["error", "message"]


def _coeffs_theta(scale):
    block = [[[scale, 0.0]]]
    return {"kind": "coeffs", "laurent": {"dim": 1, "lo": 0, "coeffs": [block, block]}}


_OVERFLOWING = {
    "coeffs 1e153": _coeffs_theta(1e153),
    "coeffs 1e154": _coeffs_theta(1e154),
    # Hermitian, but P P overflows to nan
    "nan factor": {"kind": "potapov", "factors": [[[[1e200, 0], [1e200, 0]], [[1e200, 0], [-1e200, 0]]]]},
    "1e308 unitary": {
        "kind": "potapov",
        "left_unitary": [[[1e308, 0], [0, 0]], [[0, 0], [1e308, 0]]],
        "factors": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]],
    },
}

# (exit status, error code or None, stdout document or None) per payload and command
_EXPECTED = {
    ("coeffs 1e153", "inner"): (1, None, {"analytic": True, "inner_residual": None,
                                          "purity_margin": -1e153, "verdict": False}),
    ("coeffs 1e154", "inner"): (1, None, {"analytic": True, "inner_residual": None,
                                          "purity_margin": -1e154, "verdict": False}),
    ("coeffs 1e153", "dim"): (1, "E_NOT_INNER", None),
    ("coeffs 1e154", "dim"): (1, "E_NOT_INNER", None),
    ("nan factor", "inner"): (1, "E_NOT_PROJECTION", None),
    ("nan factor", "dim"): (1, "E_NOT_PROJECTION", None),
    ("1e308 unitary", "inner"): (1, "E_NOT_UNITARY", None),
    ("1e308 unitary", "dim"): (1, "E_NOT_UNITARY", None),
}


@pytest.mark.parametrize("payload, command", sorted(_EXPECTED))
def test_overflowing_input_leaves_stderr_clean(tmp_path, payload, command):
    path = tmp_path / "theta.json"
    path.write_text(json.dumps(_OVERFLOWING[payload]), encoding="utf-8")
    argv = ["inner", "check"] if command == "inner" else ["dim"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mttokit.cli", *argv, "--theta", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    status, error, doc = _EXPECTED[payload, command]
    assert proc.returncode == status
    if error is None:
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == doc
    else:
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        report = json.loads(lines[0])
        assert sorted(report) == ["error", "message"] and report["error"] == error


_CANDIDATES = {
    "non-inner": _coeffs_theta(0.5),
    "non-pure": {"kind": "potapov", "factors": [serialize.matrix_to_json(np.diag([1.0, 0.0]))]},
    "non-analytic": {"kind": "coeffs", "laurent": serialize.laurent_to_json(MatLaurent(-1, 0.5 * np.ones((2, 1, 1))))},
    "overflowing": _coeffs_theta(1e154),
}


def _inner_check_oracle(candidate) -> str:
    """The earlier `inner check` body, which measured Theta*Theta and
    ||Theta(0)|| a second time inside is_inner and is_pure."""
    analytic = candidate.lo >= 0
    residual = inner_residual(candidate) if analytic else float("inf")
    ok = analytic and is_inner(candidate) and is_pure(candidate)
    return serialize.canonical_json({
        "inner_residual": residual if np.isfinite(residual) else None,
        "analytic": analytic,
        "purity_margin": purity_margin(candidate) if analytic else None,
        "verdict": bool(ok),
    }) + "\n"


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, *_CANDIDATES])
def test_inner_check_measures_once_and_matches_the_earlier_output(tmp_path, capsys, monkeypatch, name):
    if name in FIXTURE_NAMES:
        source, candidate = name, fixture(name).theta
    else:
        source = str(tmp_path / "theta.json")
        (tmp_path / "theta.json").write_text(json.dumps(_CANDIDATES[name]), encoding="utf-8")
        candidate = theta_from_json(_CANDIDATES[name])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        want = _inner_check_oracle(candidate)
    calls = []
    counted = lambda theta: calls.append(theta) or inner_residual(theta)  # noqa: E731
    monkeypatch.setattr(cli, "inner_residual", counted)
    monkeypatch.setattr(laurent, "inner_residual", counted)
    code = main(["inner", "check", "--theta", source])
    out = capsys.readouterr().out
    assert out == want and code == (0 if json.loads(want)["verdict"] else 1)
    assert len(calls) == (1 if candidate.lo >= 0 else 0)


def _zero_test_symbols(inner):
    """A symbol of the zero operator, its costar-only part (Theta Psi2)*, and a symbol of a non-zero operator."""
    rng = np.random.default_rng(inner.n + 61)
    theta, d = inner.theta, inner.d
    costar = boundary_adjoint(multiply(theta, random_symbol(d, 0, 2, rng)))
    return {"zero": multiply(theta, random_symbol(d, 0, 2, rng)) + costar, "costar": costar,
            "non-zero": random_symbol(d, -1, 1, rng)}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_symbol_zero_test_matches_the_laurent_route(tmp_path, capsys, name):
    inner = fixture(name)
    for label, phi in _zero_test_symbols(inner).items():
        path = tmp_path / f"{label}.json"
        serialize.dump_json_file(path, serialize.laurent_to_json(phi))
        code = main(["symbol", "zero-test", "--theta", name, "--symbol", str(path)])
        got = json.loads(capsys.readouterr().out)
        want = division_oracles.zero_symbol_decompose(ModelSpaceBasis(inner), phi)
        assert want.is_zero is (label != "non-zero")
        assert got["is_zero"] is want.is_zero and code == (0 if want.is_zero else 1)
        tol = 1e-15 * phi.norm()  # every float is measured in the symbol's norm
        assert abs(got["operator_norm"] - want.operator_norm) <= tol
        assert got["tol"] == 1e-9 * phi.norm()  # the default bound, REL * ||Phi||
        if not want.is_zero:
            assert sorted(got) == ["is_zero", "operator_norm", "schema_version", "tol"]
            continue
        assert abs(got["residual"] - want.residual) <= tol
        for key, ref in (("analytic_factor", want.psi1), ("costar_factor", want.psi2)):
            factor = serialize.json_to_mat_laurent(got[key])
            lo, hi = min(factor.lo, ref.lo), max(factor.hi, ref.hi)
            assert factor.lo >= 0 and np.linalg.norm(factor.window(lo, hi) - ref.window(lo, hi)) <= tol
