"""What the command line writes: one line of `serialize.canonical_json` on
stdout for every subcommand, and on stderr nothing or exactly one
`{"error", "message"}` line, also for inputs that overflow in numpy and
for an operator or symbol of Frobenius norm above `numerics.MAX_NORM`,
which is refused as E_PARSE, while one at the bound gets a finite answer.
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
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, inner_residual, is_pure, multiply, purity_margin
from mttokit.model_space import ModelSpaceBasis, theta_from_json
from mttokit.mtto import build
from mttokit.numerics import MAX_NORM, frobenius
from mttokit.randgen import random_symbol

import division_oracles
from json_files import dump_json_file, inner_to_json, operator_to_json

ROOT = Path(__file__).resolve().parents[1]


def _inputs(tmp_path, name):
    """Symbol, member operator and zero-symbol files for fixture `name`."""
    inner = fixture(name)
    d = inner.d
    symbol = MatLaurent(-1, np.stack([np.eye(d), 0.5 * np.eye(d), np.eye(d)[::-1]]))
    paths = {"symbol": tmp_path / "symbol.json", "op": tmp_path / "op.json", "zero": tmp_path / "zero.json"}
    dump_json_file(paths["symbol"], serialize.laurent_to_json(symbol))
    dump_json_file(paths["op"], operator_to_json(build(ModelSpaceBasis(inner), symbol)))
    dump_json_file(paths["zero"], serialize.laurent_to_json(inner.theta))
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
    dump_json_file(path, inner_to_json(fixture(name), FIXTURE_FACTORS[name]))
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


def _at_the_bound(a, above):
    """`a` rescaled to Frobenius norm MAX_NORM, rounded down onto the bound,
    or 1e-12 above it."""
    a = a * (MAX_NORM / frobenius(a))
    while frobenius(a) > MAX_NORM:
        a = np.nextafter(a, 0)
    return a * (1 + 1e-12) if above else a


def _bounded_payloads(operator, symbol, above):
    """An --op and a --symbol payload for FIX3, at the norm bound or just
    above it."""
    return {"--op": {"entries": serialize.matrix_to_json(_at_the_bound(operator, above))},
            "--symbol": serialize.laurent_to_json(MatLaurent(symbol.lo, _at_the_bound(symbol.coeffs.real, above)))}


# the identity, a member, and Theta, the symbol of the zero operator
_ZERO = np.eye(3), fixture("FIX3").theta
# a Gaussian operator, not a member, and a symbol whose operator is not zero
_NON_ZERO = (np.random.default_rng(0).standard_normal((3, 3)),
             MatLaurent(-1, np.stack([np.eye(2), 0.5 * np.eye(2), np.eye(2)[::-1]])))


class _Finite:
    """Equal to any finite number, or nested list of numbers: a field whose
    value rests on rounding at the scale of 1e300, pinned only as finite."""

    def __eq__(self, other):
        return not isinstance(other, (bool, str, dict)) and bool(np.isfinite(np.asarray(other, dtype=float)).all())

    def __repr__(self):
        return "FINITE"


FINITE = _Finite()

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
    # --op and --symbol payloads for FIX3, read against numerics.MAX_NORM
    "1e308 entries": {"--op": {"entries": [[[1e308 * (-1) ** (i * j), 0.0] for j in range(3)] for i in range(3)]},
                      "--symbol": {"dim": 2, "lo": 1, "coeffs": [[[[1e308, 0.0], [-1e308, 0.0]]] * 2] * 2}},
    "5e307 entries": {"--op": {"entries": [[[5e307 * (-1) ** (i * j), 0.0] for j in range(3)] for i in range(3)]}},
    "zero at the bound": _bounded_payloads(*_ZERO, above=False),
    "zero above the bound": _bounded_payloads(*_ZERO, above=True),
    "non-zero at the bound": _bounded_payloads(*_NON_ZERO, above=False),
    "non-zero above the bound": _bounded_payloads(*_NON_ZERO, above=True),
}

_ARGV = {  # the last argument is the payload's file: a Theta, or the --op or --symbol entry of the payload
    "inner": ("inner", "check", "--theta", "{file}"),
    "dim": ("dim", "--theta", "{file}"),
    "op build": ("op", "build", "--theta", "FIX3", "--symbol", "{file}"),
    "op test": ("op", "test", "--theta", "FIX3", "--op", "{file}"),
    "op recover": ("op", "recover", "--theta", "FIX3", "--op", "{file}"),
    "symbol zero-test": ("symbol", "zero-test", "--theta", "FIX3", "--symbol", "{file}"),
}

_REFUSED = (2, "E_PARSE", None)
_FIX3_ID = ModelSpaceBasis(fixture("FIX3")).basis_id
_LAURENT = {"dim": 2, "lo": 0, "coeffs": FINITE}

# (exit status, error code or None, stdout document or None) per payload and command
_EXPECTED = {
    ("coeffs 1e153", "inner"): (1, None, {"analytic": True, "inner_residual": None, "inner_tol": 1e-10,
                                          "purity_margin": -1e153, "purity_floor": 1e-9, "verdict": False}),
    ("coeffs 1e154", "inner"): (1, None, {"analytic": True, "inner_residual": None, "inner_tol": 1e-10,
                                          "purity_margin": -1e154, "purity_floor": 1e-9, "verdict": False}),
    ("coeffs 1e153", "dim"): (1, "E_NOT_INNER", None),
    ("coeffs 1e154", "dim"): (1, "E_NOT_INNER", None),
    ("nan factor", "inner"): (1, "E_NOT_PROJECTION", None),
    ("nan factor", "dim"): (1, "E_NOT_PROJECTION", None),
    ("1e308 unitary", "inner"): (1, "E_NOT_UNITARY", None),
    ("1e308 unitary", "dim"): (1, "E_NOT_UNITARY", None),
    ("1e308 entries", "op build"): _REFUSED,
    ("1e308 entries", "op test"): _REFUSED,
    ("1e308 entries", "op recover"): _REFUSED,
    ("1e308 entries", "symbol zero-test"): _REFUSED,
    ("5e307 entries", "op test"): _REFUSED,  # ||A||_F = 1.5e308 is finite, m * residual is not
    ("zero at the bound", "op build"): (0, None, {"schema_version": 1, "n": 3, "basis_id": _FIX3_ID,
                                                  "entries": FINITE}),
    ("zero at the bound", "op test"): (0, None, {"verdict": True, "residual": 0.0, "tol": FINITE,
                                                 "distance_bounds": [0.0, 0.0]}),
    ("zero at the bound", "op recover"): (0, None, {"schema_version": 1, "analytic_part": _LAURENT,
                                                    "costar_part": _LAURENT,
                                                    "membership_residual": 0.0, "membership_tol": FINITE,
                                                    "rebuild_residual": FINITE}),
    ("zero at the bound", "symbol zero-test"): (0, None, {"schema_version": 1, "is_zero": True, "operator_norm": 0.0,
                                                          "analytic_factor": _LAURENT, "costar_factor": _LAURENT,
                                                          "residual": FINITE, "tol": FINITE}),
    ("non-zero at the bound", "op build"): (0, None, {"schema_version": 1, "n": 3, "basis_id": _FIX3_ID,
                                                      "entries": FINITE}),
    ("non-zero at the bound", "op test"): (1, None, {"verdict": False, "residual": FINITE, "tol": FINITE,
                                                     "distance_bounds": [FINITE, FINITE]}),
    ("non-zero at the bound", "op recover"): (1, "E_NOT_MTTO", None),
    ("non-zero at the bound", "symbol zero-test"): (1, None, {"schema_version": 1, "is_zero": False,
                                                              "operator_norm": FINITE, "tol": FINITE}),
    **{(payload, command): _REFUSED for payload in ("zero above the bound", "non-zero above the bound")
       for command in ("op build", "op test", "op recover", "symbol zero-test")},
}


@pytest.mark.parametrize("payload, command", sorted(_EXPECTED))
def test_overflowing_input_leaves_stderr_clean(tmp_path, payload, command):
    """A payload that overflows in numpy, or an operator or symbol above
    numerics.MAX_NORM, gives one error line; one at the bound an answer with
    every number finite, and a clean stderr."""
    argv, source, path = _ARGV[command], _OVERFLOWING[payload], tmp_path / "input.json"
    path.write_text(json.dumps(source.get(argv[-2], source)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "mttokit.cli", *argv[:-1], str(path)],
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
    """The earlier `inner check` body, which measured ||Theta(0)|| a second
    time inside is_pure, with the two bounds the document now writes beside
    the two measures."""
    analytic = candidate.lo >= 0
    residual = inner_residual(candidate) if analytic else float("inf")
    ok = analytic and residual <= 1e-10 and is_pure(candidate)
    return serialize.canonical_json({
        "inner_residual": residual if np.isfinite(residual) else None,
        "inner_tol": 1e-10,
        "analytic": analytic,
        "purity_margin": purity_margin(candidate) if analytic else None,
        "purity_floor": 1e-9,
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
        dump_json_file(path, serialize.laurent_to_json(phi))
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
