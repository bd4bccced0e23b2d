import dataclasses
import errno
import importlib.metadata
import inspect
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from mttokit import cli, mtto, randgen, serialize
from mttokit.cli import COMMANDS, build_parser, main
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, multiply
from mttokit.model_operator import OperatorMatrix
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import build, membership_witness
from mttokit.suite import SuiteConfig, _spaces, run_suite

from division_oracles import near_impure_space
from json_files import dump_json_file, inner_to_json, operator_to_json
from membership_oracles import rebuild_bound

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_symbol(tmp_path, name, f):
    path = tmp_path / name
    dump_json_file(path, serialize.laurent_to_json(f))
    return str(path)


def test_inner_check_fixture(capsys):
    code, out, err = run(capsys, "inner", "check", "--theta", "FIX3")
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] and doc["inner_residual"] <= 1e-12
    assert err == ""


def test_inner_check_rejects_non_inner_file(tmp_path, capsys):
    path = write_symbol(tmp_path, "const.json", MatLaurent.identity(2))
    doc = {"kind": "coeffs", "laurent": json.loads((tmp_path / "const.json").read_text())}
    dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    assert code == 1
    assert json.loads(out)["verdict"] is False


def test_inner_check_reports_a_non_pure_potapov_product(tmp_path, capsys):
    # one factor diag(1, 0) gives Theta = diag(z, 1): inner, but Theta(0) has norm 1
    doc = {"kind": "potapov", "factors": [serialize.matrix_to_json(np.diag([1.0, 0.0]))]}
    dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    report = json.loads(out)
    assert code == 1 and err == ""
    assert report["verdict"] is False and report["analytic"] is True
    assert report["inner_residual"] <= 1e-12 and abs(report["purity_margin"]) <= 1e-12


def test_inner_check_reports_a_non_analytic_theta(tmp_path, capsys):
    doc = {"kind": "coeffs", "laurent": serialize.laurent_to_json(MatLaurent(-1, 0.5 * np.ones((2, 1, 1))))}
    dump_json_file(tmp_path / "inner.json", doc)
    code, out, err = run(capsys, "inner", "check", "--theta", str(tmp_path / "inner.json"))
    assert code == 1 and err == ""
    assert json.loads(out) == {"schema_version": 1, "analytic": False, "inner_residual": None, "inner_tol": 1e-10,
                               "purity_margin": None, "purity_floor": 1e-9, "verdict": False}


def test_space_basis_reports_dimensions(capsys):
    code, out, _ = run(capsys, "space", "basis", "--theta", "FIX3")
    doc = json.loads(out)
    assert code == 0 and (doc["n"], doc["d"], doc["degree"]) == (3, 2, 2)
    q = serialize.json_to_matrix(doc["columns"])
    assert q.shape == (4, 3)


def test_op_build_test_recover_round_trip(tmp_path, capsys):
    phi = MatLaurent(1, np.eye(2)[np.newaxis])
    sym = write_symbol(tmp_path, "sym.json", phi)
    op_path = str(tmp_path / "op.json")
    code, out, _ = run(capsys, "op", "build", "--theta", "FIX3", "--symbol", sym, "--out", op_path)
    assert code == 0 and out == ""
    with open(op_path, encoding="utf-8") as fh:  # the document the tests' operator files copy
        assert json.load(fh) == operator_to_json(build(ModelSpaceBasis(fixture("FIX3")), phi))
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", op_path)
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] and doc["residual"] <= doc["tol"]
    assert set(doc) == {"schema_version", "distance_bounds", "residual", "tol", "verdict"}
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
    dump_json_file(path, {"dim": 3, "lo": 0, "coeffs": serialize.array_to_json(np.zeros((1, 2, 2)))})
    code, out, err = run(capsys, *command, "--theta", "FIX3", "--symbol", str(path))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "E_PARSE" and "declared dim 3" in json.loads(err)["message"]


def test_op_test_rejects_non_member_and_recover_refuses(tmp_path, capsys):
    mat = np.zeros((3, 3))
    mat[2, 2] = 1.0
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, {"n": 3, "entries": serialize.matrix_to_json(mat)})
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
    doc = operator_to_json(op)
    doc["basis_id"] = "0" * 16
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, doc)
    code, _, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 2 and json.loads(err)["error"] == "E_PARSE"


@pytest.mark.parametrize("n", [7, 0, True, 1.0, "1", None])
@pytest.mark.parametrize("command", ["test", "recover"])
def test_op_file_declaring_an_n_other_than_the_size_of_its_entries_is_refused(tmp_path, capsys, command, n):
    doc = operator_to_json(build(ModelSpaceBasis(fixture("FIX1")), MatLaurent.identity(1)))
    assert doc["n"] == 1 and len(doc["entries"]) == 1
    doc["n"] = n
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, doc)
    code, out, err = run(capsys, "op", command, "--theta", "FIX1", "--op", str(op_path))
    _assert_parse_error(code, out, err)
    assert f"declared n {n!r}" in json.loads(err)["message"]


@pytest.mark.parametrize("declared", [{"n": 1}, {}], ids=["n 1", "no n"])
def test_op_file_declaring_its_size_or_no_n_is_read(tmp_path, capsys, declared):
    doc = operator_to_json(build(ModelSpaceBasis(fixture("FIX1")), MatLaurent.identity(1)))
    del doc["n"]
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, {**doc, **declared})
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX1", "--op", str(op_path))
    assert code == 0 and json.loads(out)["verdict"]


def _op_file_with_id(tmp_path, basis_id):
    doc = operator_to_json(build(ModelSpaceBasis(fixture("FIX3")), MatLaurent.identity(2)))
    doc["basis_id"] = basis_id
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, doc)
    return str(op_path)


def test_op_file_with_a_current_id_is_read(tmp_path, capsys):
    basis_id = ModelSpaceBasis(fixture("FIX3")).basis_id
    assert basis_id.startswith("v6-")
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, basis_id))
    assert code == 0 and json.loads(out)["verdict"]


@pytest.mark.parametrize("command", ["test", "recover"])
def test_op_file_with_an_unprefixed_id_is_refused(tmp_path, capsys, command):
    # the form of the ids before v2: 16 hex digits of a hash of float reprs
    code, out, err = run(capsys, "op", command, "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, "3f2a9c0d1b7e4a55"))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "has no v6- prefix" in message and "rebuild" in message


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
    assert "v2-c94075ba28d66639" in message and "v6" in message and "rebuild" in message


def test_op_file_with_a_wrong_v3_id_is_refused(tmp_path, capsys):
    # FIX3's id under the v3 rule, whose Gram-Schmidt cut was 1e-7: same hash, older basis rule
    code, out, err = run(capsys, "op", "recover", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, "v3-8745784d20305f31"))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "v3-8745784d20305f31" in message and "has no v6- prefix" in message and "rebuild" in message


def test_op_file_with_a_wrong_v4_id_is_refused(tmp_path, capsys):
    # FIX3's id under the v4 rule, which kept a basis that rounding had taken off the model space
    code, out, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, "v4-8745784d20305f31"))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "v4-8745784d20305f31" in message and "has no v6- prefix" in message and "rebuild" in message


def test_op_file_with_a_v5_id_is_refused(tmp_path, capsys):
    # FIX3's id under the v5 rule, a Gram-Schmidt basis named by a hash of Theta alone
    op_path = _op_file_with_id(tmp_path, "v5-8745784d20305f31")
    code, out, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", op_path)
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert "v5-8745784d20305f31" in message and "has no v6- prefix" in message and "rebuild" in message


def test_op_file_with_a_wrong_v6_id_is_refused(tmp_path, capsys):
    wrong = "v6-" + "0" * 16
    code, out, err = run(capsys, "op", "test", "--theta", "FIX3", "--op", _op_file_with_id(tmp_path, wrong))
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert wrong in message and ModelSpaceBasis(fixture("FIX3")).basis_id in message


# Theta = z^1000000 with d = 1: inner and pure, but its coefficient window has a million coordinates
HUGE_WINDOW = {"kind": "coeffs", "laurent": {"dim": 1, "lo": 1000000, "coeffs": [[[[1.0, 0.0]]]]}}


@pytest.mark.parametrize("argv", [["dim"], ["space", "basis"], ["op", "build", "--symbol", "SYMBOL"], ["inner", "check"]])
def test_window_above_the_cap_exits_2(tmp_path, capsys, argv):
    dump_json_file(tmp_path / "theta.json", HUGE_WINDOW)
    symbol = write_symbol(tmp_path, "symbol.json", MatLaurent.identity(1))
    argv = [symbol if a == "SYMBOL" else a for a in argv]
    code, out, err = run(capsys, *argv, "--theta", str(tmp_path / "theta.json"))
    _assert_parse_error(code, out, err)
    assert "1000000" in json.loads(err)["message"]


@pytest.mark.parametrize("argv", [["dim"], ["inner", "check"]])
def test_more_factors_than_the_window_holds_exit_2_before_any_product(tmp_path, capsys, monkeypatch, argv):
    # 1025 factors at d = 2 would multiply out to diag(z^513, z^512), but the bound counts factors
    factors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])] * 512 + [np.diag([1.0, 0.0])]
    dump_json_file(tmp_path / "theta.json",
                   {"kind": "potapov", "factors": [serialize.matrix_to_json(p) for p in factors]})
    products = []
    monkeypatch.setattr(np, "einsum", lambda *args, **kwargs: products.append(args))
    code, out, err = run(capsys, *argv, "--theta", str(tmp_path / "theta.json"))
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == "coefficient window m*d = 1025 * 2 exceeds the limit of 2048 coordinates"
    assert products == []


def test_oversized_potapov_payload_is_refused_before_any_factor_is_parsed(tmp_path, capsys, monkeypatch):
    # 3000 factors at d = 8: the count and the first factor's rows are read off the JSON
    dump_json_file(tmp_path / "theta.json",
                   {"kind": "potapov", "factors": [serialize.matrix_to_json(np.eye(8))] * 3000})
    parsed = []
    monkeypatch.setattr(serialize, "json_to_matrix", lambda obj: parsed.append(obj))
    code, out, err = run(capsys, "dim", "--theta", str(tmp_path / "theta.json"))
    _assert_parse_error(code, out, err)
    assert len(err.splitlines()) == 1
    assert json.loads(err)["message"] == "coefficient window m*d = 3000 * 8 exceeds the limit of 2048 coordinates"
    assert parsed == []


@pytest.mark.parametrize("first", ["oops", []])
def test_malformed_first_factor_keeps_its_parse_error(tmp_path, capsys, first):
    # no rows to count: the factors are parsed as before, and the first one is refused
    factors = [first] + [serialize.matrix_to_json(np.eye(8))] * 2999
    dump_json_file(tmp_path / "theta.json", {"kind": "potapov", "factors": factors})
    code, out, err = run(capsys, "dim", "--theta", str(tmp_path / "theta.json"))
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == "expected 2 levels of non-empty, equally long lists over [re, im] pairs"


def test_tol_flag_is_honored(tmp_path, capsys):
    basis = ModelSpaceBasis(fixture("FIX3"))
    op = build(basis, MatLaurent.identity(2))
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, operator_to_json(op))
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path))
    assert code == 0 and json.loads(out)["tol"] == 1e-9 * np.linalg.norm(op.mat)
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(op_path), "--tol", "1e-3")
    assert code == 0 and json.loads(out)["tol"] == 1e-3


def test_op_recover_writes_the_bound_of_its_result(tmp_path, capsys, monkeypatch):
    op_path = _member_op_file(tmp_path)
    code, out, _ = run(capsys, "op", "recover", "--theta", "FIX3", "--op", op_path)
    doc, amat = json.loads(out), serialize.json_to_matrix(serialize.load_json_file(op_path)["entries"])
    m = fixture("FIX3").m
    assert code == 0 and doc["rebuild_residual"] <= rebuild_bound(m, doc["membership_residual"], np.linalg.norm(amat))
    decision = json.loads(run(capsys, "op", "test", "--theta", "FIX3", "--op", op_path)[1])
    assert (doc["membership_residual"], doc["membership_tol"]) == (decision["residual"], decision["tol"])
    recover = mtto.recover_symbol  # the document carries the result's own numbers, not ones the command line recomputes
    monkeypatch.setattr(cli, "recover_symbol", lambda *args: dataclasses.replace(
        recover(*args), residual=0.125, membership_residual=0.25, membership_tol=0.5))
    code, out, _ = run(capsys, "op", "recover", "--theta", "FIX3", "--op", op_path)
    doc = json.loads(out)
    assert code == 0 and (doc["rebuild_residual"], doc["membership_residual"], doc["membership_tol"]) == (0.125, 0.25, 0.5)


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


def test_symbol_zero_test_builds_a_basis_only_for_a_symbol_the_split_does_not_certify(tmp_path, capsys, monkeypatch):
    theta = fixture("FIX3").theta
    zero_sym = write_symbol(tmp_path, "zero.json", theta)
    live = write_symbol(tmp_path, "live.json", MatLaurent.identity(2))
    built = []
    real = ModelSpaceBasis.__init__
    monkeypatch.setattr(ModelSpaceBasis, "__init__", lambda *args: built.append(1) or real(*args))
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", live)
    assert code == 1 and not json.loads(out)["is_zero"] and built == [1]

    def refuse(*args):
        raise AssertionError("a certified zero built a basis")

    monkeypatch.setattr(ModelSpaceBasis, "__init__", refuse)
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", zero_sym)
    doc = json.loads(out)
    assert code == 0 and doc["is_zero"] and doc["operator_norm"] <= doc["tol"]


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


def test_tiny_input_passed_by_a_loose_tol_decomposes_within_that_tol(tmp_path, capsys):
    # --tol 1e-6 lets 1e-10 * I pass as a zero symbol and 1e-10 * E_22 as a
    # member; neither has a decomposition within 1e-8 of its own scale, and
    # each by-product lies within what its decision certified instead
    tiny = write_symbol(tmp_path, "tiny.json", 1e-10 * MatLaurent.identity(2))
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", tiny, "--tol", "1e-6")
    doc = json.loads(out)
    assert code == 0 and err == "" and doc["is_zero"] and doc["tol"] == 1e-6
    assert 1e-8 * np.sqrt(2) * 1e-10 < doc["residual"] <= doc["tol"]  # above 1e-8 ||Phi||, within the tol
    outside = np.zeros((3, 3))
    outside[2, 2] = 1e-10
    path = tmp_path / "op.json"
    dump_json_file(path, {"entries": serialize.matrix_to_json(outside)})
    code, out, err = run(capsys, "op", "recover", "--theta", "FIX3", "--op", str(path), "--tol", "1e-6")
    doc = json.loads(out)
    assert code == 0 and err == "" and doc["membership_residual"] <= doc["membership_tol"] == 1e-6
    assert 1e-8 * 1e-10 < doc["rebuild_residual"] <= rebuild_bound(fixture("FIX3").m, doc["membership_residual"], 1e-10)


def test_op_test_and_op_recover_agree_at_a_loose_tol(tmp_path, capsys):
    # A = A_Phi + 1e-5 G / ||G||_F, G Gaussian in FIX3's basis coordinates, is admitted
    # at --tol 1e-3 with residual 6.94e-6;
    # its rebuild lies within m * residual of A, the upper end of the distance
    # bracket, not within 1e-8 ||A||_F, and recovery succeeds
    basis = ModelSpaceBasis(fixture("FIX3"))
    rng = np.random.default_rng(1)
    phi = randgen.random_symbol(2, -2, 2, rng)
    g = rng.standard_normal((basis.n, basis.n)) + 1j * rng.standard_normal((basis.n, basis.n))
    amat = build(basis, phi).mat + 1e-5 * g / np.linalg.norm(g)
    path = tmp_path / "op.json"
    dump_json_file(path, operator_to_json(OperatorMatrix(basis, amat)))
    code, out, _ = run(capsys, "op", "test", "--theta", "FIX3", "--op", str(path), "--tol", "1e-3")
    decision = json.loads(out)
    assert code == 0 and decision["verdict"] and f"{decision['residual']:.3e}" == "6.939e-06"
    code, out, err = run(capsys, "op", "recover", "--theta", "FIX3", "--op", str(path), "--tol", "1e-3")
    doc = json.loads(out)
    assert code == 0 and err == ""
    assert (doc["membership_residual"], doc["membership_tol"]) == (decision["residual"], decision["tol"])
    assert decision["distance_bounds"][1] > 1e-8 * np.linalg.norm(amat)
    assert f"{doc['rebuild_residual']:.3e}" == "6.939e-06"
    assert doc["rebuild_residual"] <= rebuild_bound(basis.inner.m, doc["membership_residual"], np.linalg.norm(amat))


def test_a_zero_verdict_at_a_loose_tol_keeps_its_split_within_that_tol(tmp_path, capsys):
    # Phi = Theta Psi1 + 1e-6 C on FIX5 has ||A_Phi|| = 1.4e-6 <= 1e-3, and its
    # split misses Phi by 1.435e-6: above 1e-8 ||Phi||, within the tol decided on
    inner = fixture("FIX5")
    rng = np.random.default_rng(0)
    psi1 = randgen.random_symbol(2, 0, 0, rng)
    phi = multiply(inner.theta, psi1) + MatLaurent(0, [rng.standard_normal((2, 2))]) * 1e-6
    path = write_symbol(tmp_path, "phi.json", phi)
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", "FIX5", "--symbol", path, "--tol", "1e-3")
    doc = json.loads(out)
    assert code == 0 and err == "" and doc["is_zero"] and doc["tol"] == 1e-3
    assert f"{doc['residual']:.3e}" == "1.435e-06" and doc["residual"] > 1e-8 * phi.norm()
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", "FIX5", "--symbol", path)
    assert code == 1 and not json.loads(out)["is_zero"]  # the default tol 1e-9 ||Phi|| refuses it


def test_a_split_beyond_the_tol_of_its_zero_verdict_is_still_refused(tmp_path, capsys):
    # near an impure Theta a mixed symbol's split remainder E can exceed A_Phi by
    # orders of magnitude: here ||A_Phi|| is about 4e-7 <= tol = 1e-4, decided by the
    # operator norm, while ||E|| is about 2e-3 > tol, so the split is refused
    basis = near_impure_space(1e-8)
    theta = tmp_path / "theta.json"
    dump_json_file(theta, inner_to_json(basis.inner))
    phi = randgen.random_symbol(2, -1, 1, np.random.default_rng(0)) * 1e-7
    _, _, split_err = mtto._zero_split(basis.inner, phi)
    assert np.linalg.norm(build(basis, phi).mat, 2) <= 1e-4 < np.linalg.norm(split_err)
    path = write_symbol(tmp_path, "phi.json", phi)
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", str(theta), "--symbol", path, "--tol", "1e-4")
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "E_IDENTITY_CHECK" and "failed to decompose" in json.loads(err)["message"]


def test_op_recover_of_a_member_scaled_to_1e_300_succeeds_without_warnings(tmp_path, capsys):
    basis = ModelSpaceBasis(fixture("FIX5"))
    path = tmp_path / "op.json"
    dump_json_file(path, operator_to_json(build(basis, MatLaurent(-1, 1e-300 * np.ones((3, 2, 2))))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "op", "recover", "--theta", "FIX5", "--op", str(path))
    assert code == 0 and err == "" and json.loads(out)["rebuild_residual"] <= 1e-308


def test_dim_command(capsys):
    code, out, _ = run(capsys, "dim", "--theta", "FIX2")
    doc = json.loads(out)
    assert code == 0 and doc["dim"] == 3 and doc["gauge_dim"] == 1


def _counted(monkeypatch, name):
    """The arguments, by name, of every call of the mtto function `name` from here on."""
    calls, real = [], getattr(mtto, name)
    signature = inspect.signature(real)

    def counted(*args, **kwargs):
        calls.append(signature.bind(*args, **kwargs).arguments)
        return real(*args, **kwargs)

    monkeypatch.setattr(mtto, name, counted)
    return calls


def test_op_test_decides_by_the_one_rule_and_never_forms_the_starred_identity(tmp_path, capsys, monkeypatch):
    """On FIX1-FIX5 and a seeded Potapov file, `op test` on a member and on a
    Gaussian operator goes through `_membership` once, which forms
    A - S A S* once and never A - S* A S; `op recover` goes through the same
    rule."""
    potapov, rng = tmp_path / "potapov.json", np.random.default_rng(32)
    factors, u = [randgen.random_projection(2, 1, rng) for _ in range(3)], randgen.haar_unitary(2, rng)
    dump_json_file(potapov, inner_to_json(make_inner_potapov(factors, u), factors, u))
    deltas, rules = _counted(monkeypatch, "_delta"), _counted(monkeypatch, "_membership")
    rng = np.random.default_rng(33)
    for source in (*FIXTURE_NAMES, str(potapov)):
        basis = cli._basis(SimpleNamespace(theta=source))
        gaussian = rng.standard_normal((basis.n, basis.n))
        for i, op in enumerate((build(basis, MatLaurent.identity(basis.inner.d)), OperatorMatrix(basis, gaussian))):
            path = tmp_path / f"op{i}.json"
            dump_json_file(path, operator_to_json(op))
            rules.clear()
            deltas.clear()
            code, out, err = run(capsys, "op", "test", "--theta", source, "--op", str(path))
            assert code in (0, 1) and err == "" and json.loads(out)["verdict"] is (code == 0)
            assert len(rules) == 1 and [c.get("starred", False) for c in deltas] == [False], source
        rules.clear()
        deltas.clear()
        assert run(capsys, "op", "recover", "--theta", source, "--op", str(tmp_path / "op0.json"))[0] == 0
        assert len(rules) == 1 and [c.get("starred", False) for c in deltas] == [False], source
    deltas.clear()
    membership_witness(basis, gaussian, starred=True)  # the spy sees the starred identity where it is formed
    assert [c.get("starred") for c in deltas] == [True]


def test_every_command_writes_its_pinned_keys_on_fix3(tmp_path, capsys):
    symbol = write_symbol(tmp_path, "symbol.json", MatLaurent.identity(2))
    zero = write_symbol(tmp_path, "zero.json", fixture("FIX3").theta)
    op = _member_op_file(tmp_path)
    zero_keys = {"schema_version", "is_zero", "operator_norm", "tol"}
    runs = {
        ("inner", "check"): ([], {"schema_version", "analytic", "inner_residual", "inner_tol", "purity_margin",
                                  "purity_floor", "verdict"}),
        ("space", "basis"): ([], {"schema_version", "basis_id", "n", "d", "degree", "columns"}),
        ("op", "build"): (["--symbol", symbol], {"schema_version", "n", "basis_id", "entries"}),
        ("op", "test"): (["--op", op], {"schema_version", "distance_bounds", "residual", "tol", "verdict"}),
        ("op", "recover"): (["--op", op], {"schema_version", "analytic_part", "costar_part", "rebuild_residual",
                                           "membership_residual", "membership_tol"}),
        ("symbol", "zero-test"): (["--symbol", symbol], zero_keys),
        (None, "dim"): ([], {"schema_version", "dim", "gauge_dim", "operator_space_dim", "symbol_pair_dim"}),
    }
    assert set(runs) | {(None, "suite")} == {(row[0], row[2]) for row in COMMANDS}
    for (group, name), (extra, keys) in runs.items():
        code, out, _ = run(capsys, *([group] if group else []), name, "--theta", "FIX3", *extra)
        assert code == 0 or name == "zero-test", name
        assert set(json.loads(out)) == keys, name
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", zero)
    assert code == 0 and set(json.loads(out)) == zero_keys | {"analytic_factor", "costar_factor", "residual"}
    code, out, _ = run(capsys, "suite", "--config", _small_suite_config(tmp_path))
    assert code == 0 and set(json.loads(out)) == {"schema_version", "config", "checks", "pass"}


_COMMAND_NAMES = [" ".join(filter(None, (row[0], row[2]))) for row in COMMANDS]
_VERDICT_COMMANDS = {"inner check", "op test", "symbol zero-test", "suite"}  # exit 1 writes a document


def _versioned_argv(tmp_path, kind):
    """(command, exit status) -> argv on FIX3 given as a `kind` payload file.
    An exit 1 is a negative verdict where the command decides something,
    and an error line otherwise."""
    theta, bad = str(tmp_path / f"{kind}.json"), str(tmp_path / f"bad-{kind}.json")
    factors = FIXTURE_FACTORS["FIX3"] if kind == "potapov" else None
    dump_json_file(theta, inner_to_json(fixture("FIX3"), factors))
    dump_json_file(bad, {"kind": "potapov", "factors": [serialize.matrix_to_json(np.diag([1.0, 0.0]))]}
                   if kind == "potapov" else  # not pure; a constant is not inner
                   {"kind": "coeffs", "laurent": serialize.laurent_to_json(MatLaurent.identity(2))})
    basis = ModelSpaceBasis(cli._inner(SimpleNamespace(theta=theta)))
    member = operator_to_json(build(basis, MatLaurent.identity(2)))
    gaussian = np.random.default_rng(56).standard_normal((basis.n, basis.n))
    non_member = dict(member, entries=serialize.matrix_to_json(serialize.json_to_matrix(member["entries"]) + gaussian))
    ops = {}
    for label, doc in (("member", member), ("non-member", non_member)):
        dump_json_file(tmp_path / f"{kind}-{label}.json", doc)
        ops[label] = str(tmp_path / f"{kind}-{label}.json")
    symbol = write_symbol(tmp_path, "symbol.json", MatLaurent.identity(2))
    suite = ["suite", "--config", _small_suite_config(tmp_path)]
    return {
        ("inner check", 0): ["inner", "check", "--theta", theta],
        ("inner check", 1): ["inner", "check", "--theta", bad],
        ("space basis", 0): ["space", "basis", "--theta", theta],
        ("space basis", 1): ["space", "basis", "--theta", bad],
        ("op build", 0): ["op", "build", "--theta", theta, "--symbol", symbol],
        ("op build", 1): ["op", "build", "--theta", theta, "--symbol",
                          write_symbol(tmp_path, "d3.json", MatLaurent.identity(3))],
        **{(f"op {verb}", status): ["op", verb, "--theta", theta, "--op", ops[label]]
           for verb in ("test", "recover") for status, label in ((0, "member"), (1, "non-member"))},
        ("symbol zero-test", 0): ["symbol", "zero-test", "--theta", theta, "--symbol",
                                  write_symbol(tmp_path, "zero.json", fixture("FIX3").theta)],
        ("symbol zero-test", 1): ["symbol", "zero-test", "--theta", theta, "--symbol", symbol],
        ("dim", 0): ["dim", "--theta", theta],
        ("dim", 1): ["dim", "--theta", bad],
        ("suite", 0): suite,
        ("suite", 1): suite,  # with run_suite patched to fail
    }


@pytest.mark.parametrize("command, kind, status, to_file", [
    (command, kind, status, to_file) for command in _COMMAND_NAMES
    for kind in (("potapov", "coeffs") if command != "suite" else ("config",))
    for status in (0, 1) for to_file in (False, True)])
def test_every_document_carries_the_schema_version_and_no_error_line_does(
        tmp_path, capsys, monkeypatch, command, kind, status, to_file):
    argv = _versioned_argv(tmp_path, kind)[command, status]
    if command == "suite" and status == 1:
        monkeypatch.setattr(cli, "run_suite", lambda config: {**run_suite(config), "pass": False})
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, *argv, *(["--out", str(out_path)] if to_file else []))
    assert code == status, err
    if status == 1 and command not in _VERDICT_COMMANDS:
        assert out == "" and not out_path.exists()
        (line,) = err.splitlines()
        assert sorted(json.loads(line)) == ["error", "message"]
        return
    assert err == "" and (out == "") is to_file
    doc = json.loads(out_path.read_text(encoding="utf-8") if to_file else out)
    assert type(doc["schema_version"]) is int and doc["schema_version"] == 1


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


@pytest.mark.parametrize("config", [
    {"seed": 0, "cases": 1000000000, "random_inners": [[2, 2]], "fixtures": ["FIX1"]},
    {"seed": 0, "cases": 1, "random_inners": [[8, 128]], "fixtures": ["FIX1"]},
    {"seed": 0, "cases": 1, "random_inners": [[1, 1]] * 2000, "fixtures": ["FIX1"]},
    {"seed": 0, "cases": 1, "random_inners": [[320, 1]], "fixtures": ["FIX1"]},
    {"seed": 0, "cases": 1, "random_inners": [[200, 1]]},
])
def test_suite_past_its_work_bound_exits_2_before_any_draw(tmp_path, capsys, monkeypatch, config):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("run_suite called"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    start = time.perf_counter()
    code, out, err = run(capsys, "suite", "--config", str(path))
    assert time.perf_counter() - start < 1.0
    _assert_parse_error(code, out, err)
    assert len(err.splitlines()) == 1


def test_suite_refuses_a_config_and_a_seed_together(tmp_path, capsys, monkeypatch):
    """Either one names the run; given both, neither is silently dropped."""
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("run_suite called"))
    code, out, err = run(capsys, "suite", "--config", _small_suite_config(tmp_path), "--seed", "9")
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == "mtto suite: argument --seed: not allowed with argument --config"


@pytest.mark.parametrize("argv, message", [
    (["--seed", "1", "--config", "x"], "mtto suite: argument --config: not allowed with argument --seed"),
    ([], "mtto suite: one of the arguments --config --seed is required"),
])
def test_suite_usage_errors_come_before_an_unwritable_out(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "run_suite", lambda cfg: pytest.fail("run_suite called"))
    code, out, err = run(capsys, "suite", *argv, "--out", "/nonexistent/dir/r.json")
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == message


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


@pytest.mark.parametrize("argv", [["dim", "--theta", "BAD"], ["op", "build", "--theta", "FIX3", "--symbol", "BAD"],
                                  ["op", "test", "--theta", "FIX3", "--op", "BAD"], ["suite", "--config", "BAD"]],
                         ids=["theta", "symbol", "op", "config"])
def test_input_that_is_not_utf8_exits_2(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, *[str(bad) if word == "BAD" else word for word in argv])
    _assert_parse_error(code, out, err)
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["message"].startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


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


@pytest.mark.parametrize("argv, prog, words", [
    (["op", "build", "--theta", "FIX3"], "mtto op build", "required: --symbol"),
    (["suite", "--seed", "x"], "mtto suite", "invalid int value"),
    (["bogus"], "mtto", "invalid choice"),
    (["op"], "mtto op", "required"),
    (["dim", "--theta", "FIX3", "--tol", "1e-3"], "mtto", "unrecognized arguments: --tol"),
])
def test_usage_error_exits_2(capsys, argv, prog, words):
    # one E_PARSE line on stderr, as for every other unusable input
    code, out, err = run(capsys, *argv)
    _assert_parse_error(code, out, err)
    message = json.loads(err)["message"]
    assert err.count("\n") == 1 and message.startswith(prog + ": ") and words in message


def test_help_still_goes_to_stdout_with_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["op", "test", "--help"])
    captured = capsys.readouterr()
    assert exc.value.code == 0 and captured.err == ""
    assert captured.out.startswith("usage: mtto op test [-h] --theta NAME|FILE --op FILE [--tol T] [--out FILE]")


def _small_suite_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "cases": 1, "fixtures": ["FIX1"], "random_inners": [[1, 1]]}))
    return str(cfg)


@pytest.mark.parametrize("target", ["missing directory", "a directory"])
@pytest.mark.parametrize("command", ["dim", "suite"])
def test_out_that_cannot_be_written_exits_2(tmp_path, capsys, command, target):
    path = str(tmp_path / "no" / "such" / "dir" / "x.json") if target == "missing directory" else str(tmp_path)
    argv = ["dim", "--theta", "FIX3"] if command == "dim" else ["suite", "--config", _small_suite_config(tmp_path)]
    code, out, err = run(capsys, *argv, "--out", path)
    _assert_parse_error(code, out, err)
    assert err.count("\n") == 1 and json.loads(err)["message"].startswith(f"cannot write {path}: ")


def test_out_is_checked_before_any_work(tmp_path, capsys, monkeypatch):
    path = str(tmp_path / "no" / "r.json")
    suites = []
    monkeypatch.setattr(cli, "run_suite", suites.append)
    code, out, err = run(capsys, "suite", "--seed", "7", "--out", path)
    _assert_parse_error(code, out, err)
    assert err.count("\n") == 1 and suites == []
    assert json.loads(err)["message"] == f"cannot write {path}: [Errno 2] No such file or directory: {path!r}"


@pytest.mark.parametrize("command", ["dim", "suite"])
def test_out_under_a_file_is_refused_before_any_input_or_work(tmp_path, capsys, monkeypatch, command):
    """A parent that is a regular file: ENOTDIR, as `open` reports it, before
    the missing --theta of `dim` is read and before `suite` runs."""
    parent = tmp_path / "file"
    parent.write_text("kept")
    path = str(parent / "r.json")
    with pytest.raises(OSError) as opened:
        open(path, "w")
    assert opened.value.errno == errno.ENOTDIR
    suites = []
    monkeypatch.setattr(cli, "run_suite", suites.append)
    argv = ["dim", "--theta", str(tmp_path / "missing.json")] if command == "dim" else ["suite", "--seed", "7"]
    code, out, err = run(capsys, *argv, "--out", path)
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == f"cannot write {path}: {opened.value}"
    assert suites == [] and parent.read_text() == "kept"


@pytest.mark.parametrize("argv, message", [
    (["op", "test", "--op", "MISSING", "--tol", "abc", "--out", "BAD"],
     "mtto op test: argument --tol: must be a number, got 'abc'"),
    (["op", "test", "--op", "MISSING", "--out", "BAD"], "cannot write BAD: "),
    (["dim", "--out", "BAD"], "cannot write BAD: "),
])
def test_errors_come_in_order_tol_then_out_then_input(tmp_path, capsys, argv, message):
    bad, missing = str(tmp_path / "no" / "r.json"), str(tmp_path / "missing.json")
    names = {"BAD": bad, "MISSING": missing}
    code, out, err = run(capsys, *[names.get(a, a) for a in argv], "--theta", missing)
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"].startswith(message.replace("BAD", bad))


def test_a_run_that_fails_on_its_input_leaves_out_alone(tmp_path, capsys):
    path = tmp_path / "r.json"
    argv = ["dim", "--theta", str(tmp_path / "missing.json"), "--out", str(path)]
    _assert_parse_error(*run(capsys, *argv))
    assert not path.exists()
    path.write_text("kept")
    _assert_parse_error(*run(capsys, *argv))
    assert path.read_text() == "kept"


@pytest.mark.parametrize("command, input_flag", [(("op", "test"), "--op"), (("op", "recover"), "--op"),
                                                 (("symbol", "zero-test"), "--symbol")])
def test_a_bad_tol_is_reported_before_a_missing_theta_file(capsys, command, input_flag):
    argv = [*command, "--theta", "/nonexistent/theta.json", input_flag, "/nonexistent/input.json", "--tol", "abc"]
    code, out, err = run(capsys, *argv)
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"] == f"mtto {' '.join(command)}: argument --tol: must be a number, got 'abc'"


@pytest.mark.parametrize("command", [("op", "build"), ("symbol", "zero-test")])
def test_theta_is_loaded_before_the_symbol(capsys, command):
    code, out, err = run(capsys, *command, "--theta", "/nonexistent/theta.json", "--symbol", "/nonexistent/sym.json")
    _assert_parse_error(code, out, err)
    assert json.loads(err)["message"].startswith("cannot read /nonexistent/theta.json: ")


def _readme_commands():
    """The command words of each line of the `sh` block under "Command line" in README.md."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = line.split()
        assert words[0] == "mtto", line
        commands.append(tuple(itertools.takewhile(lambda w: not w.startswith("--"), words[1:])))
    return commands


def test_readme_lists_exactly_the_commands_of_the_cli_table():
    table = [(name,) if group is None else (group, name) for group, _, name, *_ in COMMANDS]
    assert _readme_commands() == table


@pytest.mark.parametrize("row", COMMANDS, ids=lambda row: " ".join(filter(None, (row[0], row[2]))))
def test_every_command_accepts_out(row):
    group, _, name, _, arguments, handler = row
    required = []
    for spec in arguments:
        if isinstance(spec[0], str):
            flag, kwargs = spec
            required += [flag, "x"] if kwargs.get("required") else []
        else:  # a required group of alternatives: give its first
            required += [spec[0][0], "x"]
    args = build_parser().parse_args([*filter(None, (group, name)), *required, "--out", "result.json"])
    assert args.out == "result.json" and args.fn is handler


@pytest.mark.parametrize("sign", [1, -1])
def test_zero_test_of_a_symbol_at_frequency_1e12_is_cheap(tmp_path, capsys, sign):
    path = tmp_path / "far.json"
    dump_json_file(path, {"dim": 2, "lo": sign * 10**12, "coeffs": serialize.array_to_json(np.eye(2)[None])})
    start = time.perf_counter()
    code, out, err = run(capsys, "symbol", "zero-test", "--theta", "FIX3", "--symbol", str(path))
    assert time.perf_counter() - start < 1.0
    doc = json.loads(out)
    factor, other = ("analytic_factor", "costar_factor") if sign > 0 else ("costar_factor", "analytic_factor")
    assert code == 0 and err == "" and doc["is_zero"] and doc["residual"] <= 1e-13
    assert doc[factor]["lo"] == 10**12 - 2 and doc[other] == serialize.laurent_to_json(MatLaurent.zero(2))


def _member_op_file(tmp_path):
    basis = ModelSpaceBasis(fixture("FIX3"))
    op_path = tmp_path / "op.json"
    dump_json_file(op_path, operator_to_json(build(basis, MatLaurent.identity(2))))
    return str(op_path)


def _assert_parse_error(code, out, err):
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "E_PARSE"


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "1", "abc"])
def test_tol_outside_the_open_unit_interval_exits_2(tmp_path, capsys, value):
    _assert_parse_error(*run(capsys, "op", "test", "--theta", "FIX3", "--op", _member_op_file(tmp_path), "--tol", value))


def test_symbol_without_dim_exits_2(tmp_path, capsys):
    doc = serialize.laurent_to_json(MatLaurent.identity(2))
    del doc["dim"]
    path = tmp_path / "sym.json"
    dump_json_file(path, doc)
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
    dump_json_file(tmp_path / "inner.json", {"kind": "potapov", "factors": []})
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


HOSTILE_JSON = {
    "nested": "[" * 10**5 + "]" * 10**5,  # deeper than the recursion limit
    "long-integer": '{"kind": "coeffs", "laurent": {"dim": 1, "lo": ' + "1" * 5000 + "}}",  # above 4300 digits
}
READERS = {
    "theta": ("dim", "--theta"),
    "symbol": ("op", "build", "--theta", "FIX3", "--symbol"),
    "op": ("op", "test", "--theta", "FIX3", "--op"),
    "config": ("suite", "--config"),
}


@pytest.mark.parametrize("reader", READERS)
@pytest.mark.parametrize("shape", HOSTILE_JSON)
def test_json_the_decoder_refuses_exits_2_naming_the_file(tmp_path, capsys, shape, reader):
    path = tmp_path / "hostile.json"
    path.write_text(HOSTILE_JSON[shape])
    code, out, err = run(capsys, *READERS[reader], str(path))
    _assert_parse_error(code, out, err)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert json.loads(err)["message"].startswith(f"invalid JSON in {path}: ")


def test_tiny_non_member_is_rejected_and_tiny_member_accepted(tmp_path, capsys):
    # the default tolerance scales with ||A||, so scaling an operator
    # down by 1e-10 leaves its verdict alone
    basis = ModelSpaceBasis(fixture("FIX2"))
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    member = build(basis, MatLaurent(-1, rng.standard_normal((3, 1, 1)))).mat
    for mat, want in ((1e-10 * g / np.linalg.norm(g, 2), 1), (1e-10 * member, 0)):
        path = tmp_path / "op.json"
        dump_json_file(path, {"entries": serialize.matrix_to_json(mat)})
        code, out, _ = run(capsys, "op", "test", "--theta", "FIX2", "--op", str(path))
        assert code == want and json.loads(out)["verdict"] is (want == 0)


def test_operator_of_a_zero_symbol_passes_op_test_at_the_zero_tests_tol(tmp_path, capsys):
    # A = A_{Theta Psi} is roundoff of the zero operator: the default tol REL * ||A||_F
    # has no floor, so `op test` needs the tol that `symbol zero-test` decided by
    inner = randgen.random_inner(2, 3, np.random.default_rng(100))
    theta = tmp_path / "theta.json"
    dump_json_file(theta, inner_to_json(inner))
    phi = write_symbol(tmp_path, "phi.json", multiply(inner.theta, randgen.random_symbol(2, 0, 1, np.random.default_rng(0))))
    code, out, _ = run(capsys, "symbol", "zero-test", "--theta", str(theta), "--symbol", phi)
    zero = json.loads(out)
    assert code == 0 and zero["is_zero"]
    op_path = tmp_path / "op.json"
    code, _, _ = run(capsys, "op", "build", "--theta", str(theta), "--symbol", phi, "--out", str(op_path))
    assert code == 0
    code, out, _ = run(capsys, "op", "test", "--theta", str(theta), "--op", str(op_path), "--tol", repr(zero["tol"]))
    assert code == 0 and json.loads(out)["verdict"] is True


def _versioned_inputs(tmp_path, version):
    """Theta (both kinds), symbol and operator files for FIX3, each declaring `version`
    (no schema_version field at all when version is None)."""
    inner = fixture("FIX3")
    docs = {
        "theta": inner_to_json(inner, FIXTURE_FACTORS["FIX3"]),
        "coeffs": {"kind": "coeffs", "laurent": serialize.laurent_to_json(inner.theta)},
        "symbol": serialize.laurent_to_json(MatLaurent.identity(2)),
        "op": operator_to_json(build(ModelSpaceBasis(inner), MatLaurent.identity(2))),
    }
    paths = {}
    for name, doc in docs.items():
        doc.pop("schema_version", None)
        if version is not None:
            doc["schema_version"] = version
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json_file(paths[name], doc)
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
