import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mttokit import randgen, serialize
from mttokit.cli import main
from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build
from mttokit.suite import SuiteConfig, _spaces

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_symbol(tmp_path, name, f):
    path = tmp_path / name
    serialize.dump_json_file(path, serialize.laurent_to_json(f))
    return str(path)


def test_inner_check_fixture(capsys):
    code, out, err = run(capsys, "inner", "check", "--theta", "FIX3")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] and doc["inner_residual"] <= 1e-12
    assert err == ""


def test_inner_check_rejects_non_inner_file(tmp_path, capsys):
    path = write_symbol(tmp_path, "const.json", MatLaurent.identity(2))
    doc = {"kind": "coeffs", "laurent": json.loads((tmp_path / "const.json").read_text())}
    serialize.dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_inner_check_reports_a_non_pure_potapov_product(tmp_path, capsys):
    # one factor diag(1, 0) gives Theta = diag(z, 1): inner, but Theta(0) has norm 1
    doc = {"kind": "potapov", "factors": [serialize.matrix_to_json(np.diag([1.0, 0.0]))]}
    serialize.dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["verdict"] is False and report["analytic"] is True
    assert report["inner_residual"] <= 1e-12 and abs(report["purity_margin"]) <= 1e-12


def test_inner_check_reports_a_non_analytic_theta(tmp_path, capsys):
    doc = {"kind": "coeffs", "laurent": serialize.laurent_to_json(MatLaurent(-1, 0.5 * np.ones((2, 1, 1))))}
    serialize.dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    assert code == 1 and err == ""
    assert json.loads(out) == {"analytic": False, "inner_residual": None, "purity_margin": None, "verdict": False}


def test_space_basis_reports_dimensions(capsys):
    code, out, _ = run(capsys, "space", "basis", "--theta", "FIX3")
    doc = json.loads(out)
    assert code == 0 and (doc["n"], doc["d"], doc["degree"]) == (3, 2, 2)
    q = serialize.json_to_matrix(doc["columns"])
    assert q.shape == (4, 3)


def test_op_build_test_recover_round_trip(tmp_path, capsys):
    sym = write_symbol(tmp_path, "sym.json", MatLaurent(1, np.eye(2)[np.newaxis]))
    op_path = str(tmp_path / "op.json")
    code, out, _ = run(capsys, "op", "build", "--theta", "FIX3", "--symbol", sym, "--out", op_path)
    assert code == 0 and out == ""
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", op_path)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] and doc["residual"] <= doc["tol"]
    assert set(doc["variants"]) == {"D", "Dtilde", "shift"}
    assert doc["distance_bounds"] == [doc["residual"] / 2, 2 * doc["residual"]]
    code, out, _ = run(capsys, "op", "recover", "--theta", "FIX3", "--op", op_path)
    rec = json.loads(out)
    assert code == 0 and rec["rebuild_residual"] <= 1e-9


def test_op_build_rejects_wrong_symbol_dimension(tmp_path, capsys):
    sym = write_symbol(tmp_path, "sym.json", MatLaurent.identity(3))
    code, out, err = run(capsys, "op", "build", "--theta", "FIX3", "--symbol", sym)
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "E_DIM_MISMATCH"


@pytest.mark.parametrize("command", [("op", "build"), ("symbol", "zero-test")])
def test_zero_symbol_with_a_wrong_declared_dim_is_a_parse_error(tmp_path, capsys, command):
    path = tmp_path / "sym.json"
    serialize.dump_json_file(path, {"dim": 3, "lo": 0, "coeffs": serialize.array_to_json(np.zeros((1, 2, 2)))})
    code, out, err = run(capsys, *command, "--theta", "FIX3", "--symbol", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "E_PARSE" and "declared dim 3" in json.loads(err)["message"]


def test_op_test_rejects_non_member_and_recover_refuses(tmp_path, capsys):
    mat = np.zeros((3, 3))
    mat[2, 2] = 1.0
    op_path = tmp_path / "op.json"
    serialize.dump_json_file(op_path, {"n": 3, "entries": serialize.matrix_to_json(mat)})
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] is False
    lo, hi = doc["distance_bounds"]  # FIX3 has degree 2
    assert 0 < lo == doc["residual"] / 2 and hi == 2 * doc["residual"]
    code, out, err = run(capsys, "op", "recover", "--theta", "FIX3", "--op", str(op_path))
    assert code == 1 and json.loads(err)["error"] == "E_NOT_MTTO"
    assert f"[{lo:.3e}, {hi:.3e}]" in json.loads(err)["message"]


def test_op_file_from_other_basis_is_refused(tmp_path, capsys):
    basis = ModelSpaceBasis(fixture("FIX3"))
    op = build(basis, MatLaurent.identity(2))
    doc = op.to_json()
    doc["basis_id"] = "0" * 16
    op_path = tmp_path / "op.json"
    serialize.dump_json_file(op_path, doc)
    code, _, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 2 and json.loads(err)["error"] == "E_PARSE"


def _op_file_with_id(tmp_path, basis_id):
    doc = build(ModelSpaceBasis(fixture("FIX3")), MatLaurent.identity(2)).to_json()
    doc["basis_id"] = basis_id
    op_path = tmp_path / "op.json"
    serialize.dump_json_file(op_path, doc)
    return str(op_path)


def test_op_file_with_a_current_id_is_read(tmp_path, capsys):
    basis_id = ModelSpaceBasis(fixture("FIX3")).basis_id
    assert basis_id.startswith("v3-")
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, basis_id))
    assert code == 0 and json.loads(out)["verdict"]


@pytest.mark.parametrize("command", ["test", "recover"])
def test_op_file_with_an_unprefixed_id_is_refused(tmp_path, capsys, command):
    # the form of the ids before v2: 16 hex digits of a hash of float reprs
    code, out, err = run(capsys, "op", command, "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, "3f2a9c0d1b7e4a55"))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "v2" in message and "rebuild" in message


def test_op_file_with_a_wrong_v2_id_is_refused(tmp_path, capsys):
    wrong = "v2-" + "0" * 16
    code, out, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, wrong))
    _assert_parse_error(code, out, err)
    assert wrong in json.loads(err)["message"]


@pytest.mark.parametrize("command", ["test", "recover"])
def test_op_file_with_a_v2_id_is_refused(tmp_path, capsys, command):
    # the id FIX3's basis had in v2, which also hashed the bytes of Q
    code, out, err = run(capsys, "op", command, "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, "v2-c94075ba28d66639"))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "v2-c94075ba28d66639" in message and "v3" in message and "rebuild" in message


def test_op_file_with_a_wrong_v3_id_is_refused(tmp_path, capsys):
    wrong = "v3-" + "0" * 16
    code, out, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, wrong))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert wrong in message and ModelSpaceBasis(fixture("FIX3")).basis_id in message


# Theta = z^1000000 with d = 1: inner and pure, but its coefficient window has a million coordinates
HUGE_WINDOW = {"kind": "coeffs", "laurent": {"dim": 1, "lo": 1000000, "coeffs": [[[[1.0, 0.0]]]]}}


@pytest.mark.parametrize("argv", [["dim"], ["space", "basis"], ["op", "build", "--symbol", "SYMBOL"]])
def test_window_above_the_cap_exits_2(tmp_path, capsys, argv):
    serialize.dump_json_file(tmp_path / "theta.json", HUGE_WINDOW)
    symbol = write_symbol(tmp_path, "symbol.json", MatLaurent.identity(1))
    argv = [symbol if a == "SYMBOL" else a for a in argv]
    code, out, err = run(capsys, *argv, "--theta", str(tmp_path / "theta.json"))
    _assert_parse_error(code, out, err)
    assert "1000000" in json.loads(err)["message"]


def test_inner_check_answers_on_a_window_above_the_cap(tmp_path, capsys):
    serialize.dump_json_file(tmp_path / "theta.json", HUGE_WINDOW)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "theta.json"))
    assert code == 0 and err == ""
    assert json.loads(out) == {"analytic": True, "inner_residual": 0.0, "purity_margin": 1.0, "verdict": True}


def test_tol_flag_and_env_are_honored(tmp_path, capsys, monkeypatch):
    basis = ModelSpaceBasis(fixture("FIX3"))
    op = build(basis, MatLaurent.identity(2))
    op_path = tmp_path / "op.json"
    serialize.dump_json_file(op_path, op.to_json())
    code, *_ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 0
    # identity has residual 0, so only an impossible tolerance flips it
    monkeypatch.setenv("MTTO_TOL", "not-a-number")
    code, _, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 2 and json.loads(err)["error"] == "E_PARSE"
    monkeypatch.setenv("MTTO_TOL", "0.5")
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 0 and json.loads(out)["tol"] == 0.5
    monkeypatch.delenv("MTTO_TOL")
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path), "--tol", "1e-3")
    assert code == 0 and json.loads(out)["tol"] == 1e-3


def test_symbol_zero_test_both_verdicts(tmp_path, capsys):
    theta = fixture("FIX3").theta
    zero_sym = write_symbol(tmp_path, "zero.json", theta)
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", zero_sym)
    doc = json.loads(out)
    assert code == 0 and doc["is_zero"] and "analytic_factor" in doc
    live = write_symbol(tmp_path, "live.json", MatLaurent.identity(2))
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", live)
    doc = json.loads(out)
    assert code == 1 and not doc["is_zero"] and doc["operator_norm"] > 0.9


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_symbol_zero_test_default_tolerance_is_relative(tmp_path, capsys, scale):
    theta = fixture("FIX3").theta
    zero_sym = write_symbol(tmp_path, "zero.json", scale * theta)
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", zero_sym)
    assert code == 0 and json.loads(out)["is_zero"]
    live = write_symbol(tmp_path, "live.json", scale * MatLaurent.identity(2))
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", live)
    doc = json.loads(out)
    assert code == 1 and not doc["is_zero"] and doc["operator_norm"] == pytest.approx(scale)


def test_tiny_input_passed_by_a_loose_tol_fails_its_identity_check(tmp_path, capsys):
    # --tol 1e-6 lets 1e-10 * I pass as a zero symbol and 1e-10 * E_22 as a
    # member, but neither has a decomposition within 1e-8 of its own scale
    tiny = write_symbol(tmp_path, "tiny.json", 1e-10 * MatLaurent.identity(2))
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", tiny, "--tol", "1e-6")
    assert code == 1 and out == "" and json.loads(err)["error"] == "E_IDENTITY_CHECK"
    outside = np.zeros((3, 3))
    outside[2, 2] = 1e-10
    path = tmp_path / "op.json"
    serialize.dump_json_file(path, {"entries": serialize.matrix_to_json(outside)})
    code, out, err = run(capsys, "op", "recover", "--theta", "FIX3", "--op", str(path), "--tol", "1e-6")
    assert code == 1 and out == "" and json.loads(err)["error"] == "E_IDENTITY_CHECK"


def test_op_recover_of_a_member_scaled_to_1e_300_succeeds_without_warnings(tmp_path, capsys):
    basis = ModelSpaceBasis(fixture("FIX5"))
    path = tmp_path / "op.json"
    serialize.dump_json_file(path, build(basis, MatLaurent(-1, 1e-300 * np.ones((3, 2, 2)))).to_json())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "op", "recover", "--theta", "FIX5", "--op", str(path))
    assert code == 0 and err == "" and json.loads(out)["rebuild_residual"] <= 1e-308


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--theta", "FIX2")
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 3 and doc["gauge_dim"] == 1


def test_suite_runs_are_byte_identical(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 11, "cases": 2, "fixtures": ["FIX2", "FIX3"], "random_inners": [[2, 2]]}))
    code1, out1, _ = run(capsys, "suite", "--config", str(cfg))
    code2, out2, _ = run(capsys, "suite", "--config", str(cfg))
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["pass"] and report["schema_version"] == 1
    assert all(c["pass"] for c in report["checks"])


def test_suite_config_errors_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    code, _, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 2 and json.loads(err)["error"] == "E_PARSE"
    cfg.write_text(json.dumps({"seed": 1, "fixtures": []}))
    code, *_ = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"seed": 1, "cases": 0}))
    code, *_ = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    cfg.write_text(json.dumps({"seed": 1, "unknown_knob": True}))
    code, *_ = run(capsys, "suite", "--config", str(cfg))
    assert code == 2
    code, _, err = run(capsys, "suite")
    assert code == 2


def test_suite_shape_that_draws_no_pure_inner_exits_2(tmp_path, capsys, monkeypatch):
    # no draw reaches a value at the origin of norm <= 1 - MIN_PURITY = 0
    monkeypatch.setattr(randgen, "MIN_PURITY", 1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "cases": 1, "fixtures": ["FIX1"], "random_inners": [[3, 2]]}))
    code, out, err = run(capsys, "suite", "--config", str(cfg))
    _assert_parse_error(code, out, err)
    assert "d = 3, m = 2" in json.loads(err)["message"]


def test_suite_shape_with_one_factor_passes(tmp_path, capsys):
    # m = 1 draws Theta = z U directly: at d = 150 a rank drawn from 1..d used to run the draws out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 0, "cases": 1, "fixtures": ["FIX1"], "random_inners": [[150, 1]]}))
    code, out, err = run(capsys, "suite", "--config", str(cfg))
    assert code == 0 and err == "" and json.loads(out)["pass"] is True


@pytest.mark.parametrize("seed", range(6))
def test_suite_draws_a_one_factor_space_at_every_seed(seed):
    config = SuiteConfig.from_json({"seed": seed, "cases": 1, "fixtures": ["FIX1"], "random_inners": [[150, 1]]})
    (_, basis), = _spaces(config)[1:]
    assert basis.n == 150 and basis.inner.m == 1


def test_missing_theta_file_exits_2(capsys):
    code, _, err = run(capsys, "dim", "--theta", "/nonexistent/theta.json")
    assert code == 2 and json.loads(err)["error"] == "E_PARSE"


def test_entry_point_is_installed():
    """The `mtto` console script declared in pyproject.toml exists and runs.

    Always checks the declaration: it names an importable callable, and the
    launcher body an installer writes for it runs `dim --theta FIX1` from the
    source tree with exit 0. Checks the `mtto` executable on PATH, and that
    the installed entry point matches the declaration, only when a `mttokit`
    distribution is installed.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")

    spec = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]["mtto"]
    module, attr = spec.split(":")
    assert callable(getattr(importlib.import_module(module), attr))

    launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", launcher, "dim", "--theta", "FIX1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim"] == 1

    try:
        dist = importlib.metadata.distribution("mttokit")
    except importlib.metadata.PackageNotFoundError:
        return
    scripts = {ep.name: ep.value for ep in dist.entry_points if ep.group == "console_scripts"}
    assert scripts.get("mtto") == spec
    assert shutil.which("mtto") is not None


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op", "build", "--theta", "FIX3"])  # missing --symbol
    assert exc.value.code == 2
    capsys.readouterr()


def _member_op_file(tmp_path):
    basis = ModelSpaceBasis(fixture("FIX3"))
    op_path = tmp_path / "op.json"
    serialize.dump_json_file(op_path, build(basis, MatLaurent.identity(2)).to_json())
    return str(op_path)


def _assert_parse_error(code, out, err):
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "E_PARSE"


@pytest.mark.parametrize("source", ["--tol", "MTTO_TOL"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1", "abc"])
def test_tol_outside_the_open_unit_interval_exits_2(tmp_path, capsys, monkeypatch, source, value):
    argv = ["op", "test", "--theta", "FIX3", "--op", _member_op_file(tmp_path)]
    if source == "--tol":
        argv += ["--tol", value]
    else:
        monkeypatch.setenv(source, value)
    _assert_parse_error(*run(capsys, *argv))


def test_symbol_without_dim_exits_2(tmp_path, capsys):
    doc = serialize.laurent_to_json(MatLaurent.identity(2))
    del doc["dim"]
    path = tmp_path / "sym.json"
    serialize.dump_json_file(path, doc)
    _assert_parse_error(*run(capsys, "op", "build", "--theta", "FIX3", "--symbol", str(path)))


@pytest.mark.parametrize("bad", ["true", "0.7", "1e400"])
@pytest.mark.parametrize("field", ["lo", "dim"])
@pytest.mark.parametrize("kind", ["symbol", "theta"])
def test_non_integer_laurent_field_exits_2(tmp_path, capsys, kind, field, bad):
    laurent = serialize.laurent_to_json(fixture("FIX3").theta if kind == "theta" else MatLaurent.identity(2))
    laurent[field] = 987654321
    doc = {"kind": "coeffs", "laurent": laurent} if kind == "theta" else laurent
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc).replace("987654321", bad))
    if kind == "theta":
        argv = ("dim", "--theta", str(path))
    else:
        argv = ("op", "build", "--theta", "FIX3", "--symbol", str(path))
    code, out, err = run(capsys, *argv)
    _assert_parse_error(code, out, err)
    assert field in json.loads(err)["message"]


def test_potapov_payload_without_factors_exits_2(tmp_path, capsys):
    serialize.dump_json_file(tmp_path / "inner.json", {"kind": "potapov", "factors": []})
    _assert_parse_error(*run(capsys, "dim", "--theta", str(tmp_path / "inner.json")))


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400])
def test_non_finite_operator_entry_exits_2(tmp_path, capsys, bad):
    text = json.dumps({"entries": serialize.matrix_to_json(np.zeros((3, 3)))})
    path = tmp_path / "op.json"
    path.write_text(text.replace("0.0", bad, 1))
    _assert_parse_error(*run(capsys, "op", "test", "--theta", "FIX3", "--op", str(path)))


def test_boolean_complex_entry_exits_2(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text('{"entries": [[[true, 0]]]}')
    _assert_parse_error(*run(capsys, "op", "test", "--theta", "FIX1", "--op", str(path)))


def test_tiny_non_member_is_rejected_and_tiny_member_accepted(tmp_path, capsys):
    # the default tolerance scales with ||A||, so scaling an operator
    # down by 1e-10 leaves its verdict alone
    basis = ModelSpaceBasis(fixture("FIX2"))
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    member = build(basis, MatLaurent(-1, rng.standard_normal((3, 1, 1)))).mat
    for mat, want in ((1e-10 * g / np.linalg.norm(g, 2), 1), (1e-10 * member, 0)):
        path = tmp_path / "op.json"
        serialize.dump_json_file(path, {"entries": serialize.matrix_to_json(mat)})
        code, out, _ = run(capsys, "op", "test", "--theta", "FIX2", "--op", str(path))
        assert code == want and json.loads(out)["verdict"] is (want == 0)


def _versioned_inputs(tmp_path, version):
    """Theta (both kinds), symbol and operator files for FIX3, each declaring `version`
    (no schema_version field at all when version is None)."""
    inner = fixture("FIX3")
    docs = {
        "theta": inner.to_json(),
        "coeffs": {"kind": "coeffs", "laurent": serialize.laurent_to_json(inner.theta)},
        "symbol": serialize.laurent_to_json(MatLaurent.identity(2)),
        "op": build(ModelSpaceBasis(inner), MatLaurent.identity(2)).to_json(),
    }
    paths = {}
    for name, doc in docs.items():
        doc.pop("schema_version", None)
        if version is not None:
            doc["schema_version"] = version
        paths[name] = str(tmp_path / f"{name}.json")
        serialize.dump_json_file(paths[name], doc)
    return paths


_VERSIONED_COMMANDS = {
    "theta": ("dim", "--theta", "{theta}"),
    "coeffs": ("inner", "check", "--theta", "{coeffs}"),
    "symbol": ("op", "build", "--theta", "FIX3", "--symbol", "{symbol}"),
    "op": ("op", "test", "--theta", "FIX3", "--op", "{op}"),
}


@pytest.mark.parametrize("kind", sorted(_VERSIONED_COMMANDS))
@pytest.mark.parametrize("version", [2, "1"])
def test_unknown_schema_version_exits_2(tmp_path, capsys, kind, version):
    paths = _versioned_inputs(tmp_path, version)
    argv = [a.format(**paths) for a in _VERSIONED_COMMANDS[kind]]
    code, out, err = run(capsys, *argv)
    _assert_parse_error(code, out, err)
    assert "schema_version" in json.loads(err)["message"]


@pytest.mark.parametrize("kind", sorted(_VERSIONED_COMMANDS))
@pytest.mark.parametrize("version", [1, None])
def test_current_or_missing_schema_version_is_read(tmp_path, capsys, kind, version):
    paths = _versioned_inputs(tmp_path, version)
    argv = [a.format(**paths) for a in _VERSIONED_COMMANDS[kind]]
    code, _, err = run(capsys, *argv)
    assert code == 0 and err == ""
