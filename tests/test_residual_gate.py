"""One residual gate: every identity check compares through numerics.require_small.

The gate refuses a residual that is NaN, infinite or above its bound, and
the Frobenius residuals and scales it reads come from numerics.frobenius,
which stays finite at every finite scale.  Symbols and matrices far above
1e154, where a plain sum of squares overflows, are refused or answered
with finite numbers instead of passing a check against an infinite bound.
The source of the three modules that hold the checks is read with `ast`:
no threshold there is a bare literal, and no residual error is raised but
through the gate.  The suite's registry names every tolerance it holds.
"""

import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from mttokit import serialize
from mttokit.cli import main
from mttokit.errors import IdentityCheckError, NotUnitaryError, NotZeroOperatorError
from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply
from mttokit.model_operator import Conjugation
from mttokit.model_space import ModelSpaceBasis, kernel_window, tilde_kernel_window
from mttokit.mtto import factor_through_theta, zero_symbol_decompose
from mttokit.numerics import require_small

SRC = Path(__file__).resolve().parents[1] / "src" / "mttokit"
GATED = ("model_space.py", "model_operator.py", "mtto.py")
VERDICT_ERRORS = {"NotMttoError", "NotZeroOperatorError"}  # decisions, reported with their residual
ROUTED = {  # every identity check of the three modules, by the function that holds it
    "model_space.py": ["det_degree", "__init__", "potapov_product", "require_member", "kernel_window",
                       "tilde_kernel_window"],
    "model_operator.py": ["_frame_svd", "defect_spaces", "j_operators", "__init__", "conjugation_matrix"],
    "mtto.py": ["commutant_factor", "recover_symbol", "zero_symbol_decompose"],
}
HUGE = MatLaurent(0, [[[1e200, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e200, 0.0]]])  # ||Phi|| = 1.414e200


# --- the gate ---------------------------------------------------------------


@pytest.mark.parametrize("residual", [float("nan"), float("inf"), -float("inf"), np.float64("nan")])
@pytest.mark.parametrize("bound", [1e-9, float("inf")])
def test_gate_refuses_nan_and_infinity_at_every_bound(residual, bound):
    with pytest.raises(IdentityCheckError):
        require_small(residual, bound, IdentityCheckError, "refused")


def test_gate_accepts_a_residual_equal_to_its_bound_and_returns_it():
    assert require_small(1e-9, 1e-9, IdentityCheckError, "unused") == 1e-9
    assert require_small(0.0, 0.0, IdentityCheckError, "unused") == 0.0
    with pytest.raises(IdentityCheckError):
        require_small(np.nextafter(1e-9, 1.0), 1e-9, IdentityCheckError, "above")
    with pytest.raises(IdentityCheckError):
        require_small(0.0, float("nan"), IdentityCheckError, "no bound")


def test_gate_raises_the_given_error_with_the_residual_in_its_message():
    with pytest.raises(NotUnitaryError) as err:
        require_small(2.5e-3, 1e-10, NotUnitaryError, "matrix is not unitary")
    assert str(err.value) == "matrix is not unitary"
    with pytest.raises(ValueError) as err:
        require_small(2.5e-3, 1e-10, ValueError, "kernel left the model space, residual {residual:.3e}")
    assert str(err.value) == "kernel left the model space, residual 2.500e-03"
    with pytest.raises(IdentityCheckError) as err:
        require_small(float("nan"), 1.0, IdentityCheckError, "residual {residual:.3e}")
    assert str(err.value) == "residual nan"


# --- overflow and NaN at the entry points -------------------------------------


def test_a_symbol_of_norm_1e200_is_not_the_zero_operator():
    result = zero_symbol_decompose(ModelSpaceBasis(fixture("FIX3")), HUGE)
    assert result.is_zero is False
    assert result.operator_norm == 1.414213562373095e200
    assert result.residual is None and result.psi1 is None


def test_zero_test_of_a_symbol_of_norm_1e200_exits_1_without_warnings(tmp_path, capsys):
    path = tmp_path / "phi.json"
    serialize.dump_json_file(path, serialize.laurent_to_json(HUGE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["symbol", "zero-test", "--theta", "FIX3", "--symbol", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)  # one document
    assert doc["is_zero"] is False and doc["operator_norm"] == 1.414213562373095e200


def test_a_symbol_of_norm_1e200_does_not_factor_through_theta():
    with pytest.raises(NotZeroOperatorError):
        factor_through_theta(ModelSpaceBasis(fixture("FIX3")), HUGE)


def test_a_zero_symbol_of_norm_1e200_decomposes_with_a_finite_residual():
    basis = ModelSpaceBasis(fixture("FIX3"))
    theta = basis.inner.theta
    psi1, psi2 = MatLaurent(0, [[[1e200, 0.0], [0.0, -1e200]]]), MatLaurent(0, [[[0.0, 1e200], [0.0, 0.0]]])
    phi = multiply(theta, psi1) + boundary_adjoint(multiply(theta, psi2))
    result = zero_symbol_decompose(basis, phi)
    assert result.is_zero and np.isfinite(result.residual) and result.residual <= 1e-8 * phi.norm()
    assert np.isfinite(phi.norm())
    assert (result.psi1 - psi1).norm() <= 1e-12 * psi1.norm()


@pytest.mark.parametrize("window", [kernel_window, tilde_kernel_window])
def test_kernel_witnesses_stay_finite_for_a_vector_of_norm_1e200(window):
    inner = fixture("FIX5")
    _, witness = window(inner, 0.5, [1e200, -1e200])
    assert np.isfinite(witness)


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_a_non_finite_conjugation_matrix_is_refused(entry):
    with pytest.raises(ValueError, match="conjugation matrix entries must be finite"):
        Conjugation(np.full((2, 2), entry))


# --- the source holds every check at the gate ---------------------------------


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def _module_constants(tree):
    """Names bound at module level to an int literal (sizes and limits, not tolerances)."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant) and type(node.value.value) is int:
            out.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return out


def _ordering_compares(test):
    """The <, <=, >, >= comparisons an `if` test makes, through `not`, `and`
    and `or`, but not inside the calls it makes (a rank count is an equality)."""
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return _ordering_compares(test.operand)
    if isinstance(test, ast.BoolOp):
        return [c for v in test.values for c in _ordering_compares(v)]
    if isinstance(test, ast.Compare) and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in test.ops):
        return [test]
    return []


def _is_integer(node, ints):
    if isinstance(node, ast.Name):
        return node.id in ints
    return isinstance(node, ast.Constant) and type(node.value) is int


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


@pytest.mark.parametrize("name", GATED)
def test_no_threshold_below_1e_6_is_a_bare_literal(name):
    tree = _tree(name)
    named = {id(node.value) for node in tree.body if isinstance(node, ast.Assign)}
    bare = [
        f"{name}:{node.lineno} {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < abs(node.value) < 1e-6
        and id(node) not in named
    ]
    assert not bare, f"float literals below 1e-6 outside module constants: {bare}"


@pytest.mark.parametrize("name", GATED)
def test_residual_errors_are_raised_only_by_the_gate(name):
    tree = _tree(name)
    ints = _module_constants(tree)
    bypass = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        raises = [r for stmt in node.body + node.orelse for r in ast.walk(stmt) if isinstance(r, ast.Raise)]
        residual_tests = [
            c for c in _ordering_compares(node.test) if not any(_is_integer(x, ints) for x in [c.left, *c.comparators])
        ]
        if residual_tests:
            bypass += [f"{name}:{r.lineno} {_raised_name(r)}" for r in raises if _raised_name(r) not in VERDICT_ERRORS]
    assert not bypass, f"residual errors raised outside numerics.require_small: {bypass}"


@pytest.mark.parametrize("name", GATED)
def test_every_identity_check_calls_the_gate(name):
    calls = {}
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.FunctionDef):
            gated = [c for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                     and c.func.id in ("require_small", "require_member")]
            calls[node.name] = calls.get(node.name, 0) + len(gated)
    missing = [fn for fn in ROUTED[name] if not calls.get(fn)]
    assert not missing, f"{name}: no call to the gate in {missing}"


def test_the_suite_registry_names_every_tolerance():
    tree = _tree("suite.py")
    registry = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_REGISTRY"])
    assert all(isinstance(row.elts[-1], ast.Name) for row in registry.elts)
    floats = [f"suite.py:{n.lineno} {n.value!r}" for n in ast.walk(registry)
              if isinstance(n, ast.Constant) and type(n.value) is float]
    assert not floats, f"float literals in suite._REGISTRY: {floats}"
    non_members = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_check_non_members")
    cuts = [n.value for n in ast.walk(non_members) if isinstance(n, ast.Constant) and type(n.value) is float]
    assert set(cuts) <= {0.0, 1.0} and "MIN_DEFECT" in {n.id for n in ast.walk(non_members) if isinstance(n, ast.Name)}
