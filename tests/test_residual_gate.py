"""One residual gate: every identity check compares through numerics.require_small.

The gate refuses a residual that is NaN, infinite or above its bound, and
the Frobenius residuals and scales it reads come from numerics.frobenius,
which stays finite at every finite scale.  Symbols and matrices far above
1e154, where a plain sum of squares overflows, are refused or answered
with finite numbers instead of passing a check against an infinite bound.
The source of the three modules that hold the checks is read with `ast`:
no threshold there is a bare literal, and no residual error is raised but
through the gate.  The suite's registry names every tolerance it holds.
Each rule has one owner in the package source: the package reads no
environment, only `serialize` spells the schema version and only `cli`
and `suite` write it into a document (no class but `SuiteConfig` has a
`to_json`, and `model_operator` imports no `serialize`), the three modules
and the suite take every norm through `numerics`, the rank cut and the rank rule are
applied in `numerics` alone (`defect_spaces` runs its frame check before
the frame SVDs, which purity makes rank d), and a Laurent product is
`laurent.convolve`'s one matrix product, with no einsum and no loop over
blocks, as is the membership measure `model_space.off_space`; the
block-Toeplitz index is built in `laurent.py` alone; GS_CUT is read only
by the one Gram-Schmidt keep step, `model_space._kept`, and the sweep it
calls; and `numerics.frozen` alone makes an array read-only.  The process-wide
`functools` caches are exactly the parser, the lag indices and the suite's
fixture spaces.  Nothing in the package is reached only from the tests:
a name has a reader in src/ (its export in `__all__` is none), a method
one through a receiver of its own class, an attribute stored on `self`
one by attribute, and a `basis` parameter is read for more than its
`inner`; the names the
benchmark's tracer alone keeps are exactly `j_operators`, `nullspace`
and `solve_min_norm`, and no module that checks an element names
`VecLaurent`.  A Potapov basis is read off its factors: it builds with
the window projector and the Gram-Schmidt sweep made to raise.
"""

import ast
import importlib
import importlib.util
import json
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from mttokit import model_space, serialize
from mttokit.cli import main
from mttokit.errors import IdentityCheckError, NotUnitaryError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply
from mttokit.model_operator import Conjugation
from mttokit.model_space import ModelSpaceBasis, kernel, make_inner_potapov, tilde_kernel
from mttokit.mtto import zero_symbol_decompose
from mttokit.numerics import require_small
from mttokit.randgen import random_inner

from basis_oracles import SEEDED, potapov_cell
from json_files import dump_json_file

SRC = Path(__file__).resolve().parents[1] / "src" / "mttokit"
GATED = ("model_space.py", "model_operator.py", "mtto.py")
VERDICT_ERRORS = {"NotMttoError"}  # a decision, reported with its residual
ROUTED = {  # every identity check of the three modules, by the function that holds it
    "model_space.py": ["det_degree", "__init__", "potapov_product", "require_member", "kernel", "tilde_kernel"],
    "model_operator.py": ["defect_spaces", "__init__", "conjugation_matrix"],
    "mtto.py": ["zero_symbol_decompose"],
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
    dump_json_file(path, serialize.laurent_to_json(HUGE))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["symbol", "zero-test", "--theta", "FIX3", "--symbol", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    doc = json.loads(captured.out)  # one document
    assert doc["is_zero"] is False and doc["operator_norm"] == 1.414213562373095e200


def test_a_zero_symbol_of_norm_1e200_decomposes_with_a_finite_residual():
    basis = ModelSpaceBasis(fixture("FIX3"))
    theta = basis.inner.theta
    psi1, psi2 = MatLaurent(0, [[[1e200, 0.0], [0.0, -1e200]]]), MatLaurent(0, [[[0.0, 1e200], [0.0, 0.0]]])
    phi = multiply(theta, psi1) + boundary_adjoint(multiply(theta, psi2))
    result = zero_symbol_decompose(basis, phi)
    assert result.is_zero and np.isfinite(result.residual) and result.residual <= 1e-8 * phi.norm()
    assert np.isfinite(phi.norm())
    assert (result.psi1 - psi1).norm() <= 1e-12 * psi1.norm()


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_a_zero_symbol_at_1e200_and_1e_minus_200_is_certified_on_theta_alone(scale, monkeypatch):
    inner = fixture("FIX3")
    psi1, psi2 = MatLaurent(0, [[[1.0, 0.5], [0.0, -1.0]], [[0.0, 2.0], [1.0, 0.0]]]), MatLaurent(0, [[[0.0, 1.0], [0.5, 0.0]]])
    phi = multiply(inner.theta, psi1) + boundary_adjoint(multiply(inner.theta, psi2))

    def refuse(*args):
        raise AssertionError("a certified zero built a basis")

    monkeypatch.setattr(ModelSpaceBasis, "__init__", refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = zero_symbol_decompose(inner, phi * scale)
        unscaled = zero_symbol_decompose(inner, phi)
    assert result.is_zero and 0.0 <= result.operator_norm <= result.tol and np.isfinite(result.tol)
    assert result.residual <= 1e-8 * (phi * scale).norm()
    for got, want in ((result.psi1, psi1), (result.psi2, psi2)):
        assert got.lo == 0 and np.abs(got.window(0, 1) / scale - want.window(0, 1)).max() <= 1e-12
    assert abs(result.operator_norm / scale - unscaled.operator_norm) <= 1e-15 * phi.norm()


@pytest.mark.parametrize("window", [kernel, tilde_kernel])
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


# --- one owner for each rule ----------------------------------------------------


def _package_trees():
    return {path.name: _tree(path.name) for path in sorted(SRC.glob("*.py"))}


def test_the_package_reads_no_environment():
    """A value a command decides by comes in through its arguments only."""
    names = {"environ", "getenv"}
    reads = [f"{name}:{node.lineno}" for name, tree in _package_trees().items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.alias) and node.name in names]
    assert not reads, f"environment read in the package: {reads}"


def _schema_version_values(tree):
    """The values written under a "schema_version" key: in a dict display, by
    an item assignment, or as a keyword argument."""
    key = lambda node: isinstance(node, ast.Constant) and node.value == "schema_version"  # noqa: E731
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            yield from (v for k, v in zip(node.keys, node.values) if key(k))
        elif isinstance(node, ast.Assign):
            yield from (node.value for t in node.targets if isinstance(t, ast.Subscript) and key(t.slice))
        elif isinstance(node, ast.keyword) and node.arg == "schema_version":
            yield node.value


def test_only_serialize_spells_the_schema_version():
    literals = [f"{name}:{value.lineno} {value.value!r}" for name, tree in _package_trees().items()
                if name != "serialize.py" for value in _schema_version_values(tree)
                if isinstance(value, ast.Constant)]
    assert not literals, f"schema_version literals outside serialize.SCHEMA_VERSION: {literals}"


def test_cli_writes_the_command_documents_and_suite_its_report():
    """No other module puts the schema version into a document, no class but
    `SuiteConfig`, which `SuiteConfig.from_json` reads back, has a `to_json`,
    and `model_operator` does not import `serialize`."""
    trees = _package_trees()
    writers = sorted(name for name, tree in trees.items() if any(_schema_version_values(tree)))
    assert writers == ["cli.py", "suite.py"]
    to_json = [f"{name} {node.name}" for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and "to_json" in {f.name for f in node.body if isinstance(f, ast.FunctionDef)}]
    assert to_json == ["suite.py SuiteConfig"]
    imports = [node for node in ast.walk(trees["model_operator.py"]) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not [node.lineno for node in imports if getattr(node, "module", None) == "serialize"
                or any(alias.name.rsplit(".", 1)[-1] == "serialize" for alias in node.names)]


def test_cli_spells_the_schema_version_in_its_writer_alone():
    """`_emit` versions every document, so no handler writes the key."""
    spelled = _owned(_package_trees()["cli.py"],
                     lambda node: isinstance(node, ast.Constant) and node.value == "schema_version")
    assert spelled and {owner for owner, _ in spelled} == {"_emit"}, spelled


def _owned(tree, match):
    """(enclosing function, line) of every node that `match` accepts."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if match(node):
            found.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def _named(node, name):
    return isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name


def _rank_cut_products(tree):
    """(enclosing function, line) of every product with RANK_CUT as a factor."""
    return _owned(tree, lambda node: isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and any(_named(side, "RANK_CUT") for side in (node.left, node.right)))


def _calls_of(tree, name):
    """(enclosing function, line) of every call of `name`, by name or as an attribute."""
    return _owned(tree, lambda node: isinstance(node, ast.Call) and _named(node.func, name))


def test_the_rank_cut_is_applied_in_numerics_alone():
    trees = _package_trees()
    assert {owner for owner, _ in _rank_cut_products(trees["numerics.py"])} >= {"rank_of_singular_values"}
    elsewhere = [f"{name}:{line} in {owner}" for name, tree in trees.items() if name != "numerics.py"
                 for owner, line in _rank_cut_products(tree)]
    assert not elsewhere, f"RANK_CUT applied outside numerics: {elsewhere}"


def test_the_rank_rule_is_called_in_numerics_alone():
    """No module outside `numerics` counts singular values: the defect frames
    are rank d by purity and the frame check (`model_operator._frame_svd`)."""
    trees = _package_trees()
    assert _calls_of(trees["numerics.py"], "rank_of_singular_values")  # the owner, so the search finds a call
    elsewhere = [f"{name}:{line} in {owner}" for name, tree in trees.items() if name != "numerics.py"
                 for owner, line in _calls_of(tree, "rank_of_singular_values")]
    assert not elsewhere, f"rank_of_singular_values called outside numerics: {elsewhere}"


def test_the_frame_check_precedes_the_frame_svds():
    """`_frame_svd` cuts no rank and checks no inverse because the frames it
    is handed passed the frame check: in `defect_spaces` every statement that
    calls `require_member` comes before the first that calls `_frame_svd`."""
    fn = next(node for node in _tree("model_operator.py").body
              if isinstance(node, ast.FunctionDef) and node.name == "defect_spaces")
    checks = [i for i, stmt in enumerate(fn.body) if _calls_of(stmt, "require_member")]
    svds = [i for i, stmt in enumerate(fn.body) if _calls_of(stmt, "_frame_svd")]
    assert checks and svds and max(checks) < min(svds), f"frame check at {checks}, _frame_svd at {svds}"


def _linalg_norms(tree):
    """Lines that reach numpy's `linalg.norm`, by attribute or by import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "norm" and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                or isinstance(node.value, ast.Name) and node.value.id == "linalg"):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg") and any(
                alias.name == "norm" for alias in node.names):
            yield node.lineno


def test_the_gated_modules_take_every_norm_in_numerics():
    """`numerics.frobenius` and `column_norms` take the norms of the three
    modules that hold the checks and of the suite's checks: finite at every
    finite scale, and numpy's own norms in range."""
    trees = _package_trees()
    assert list(_linalg_norms(trees["numerics.py"]))  # the owner, so the search finds a call
    calls = [f"{name}:{line}" for name in GATED + ("suite.py",) for line in _linalg_norms(trees[name])]
    assert not calls, f"np.linalg.norm outside numerics in a gated module: {calls}"


def test_the_laurent_products_take_one_route_with_no_loop_over_blocks():
    """`laurent.convolve` is every Laurent product's one route, a gathered
    block-Toeplitz matrix times one matrix: `laurent.py` calls no einsum
    (the einsum route lives in tests/product_oracles.py), and neither
    `convolve` nor `model_space.off_space`, which applies L* through it,
    nor `laurent.evaluate`, the powers of z times the blocks (its Horner
    loop is `product_oracles.horner_evaluate`), has a loop or
    comprehension over blocks."""
    trees = _package_trees()
    einsums = [node.lineno for node in ast.walk(trees["laurent.py"])
               if isinstance(node, ast.Attribute) and node.attr == "einsum"]
    assert not einsums, f"np.einsum in laurent.py at lines {einsums}"
    for module, function in (("laurent.py", "convolve"), ("model_space.py", "off_space"), ("laurent.py", "evaluate")):
        fn = next(node for node in trees[module].body if isinstance(node, ast.FunctionDef) and node.name == function)
        loops = [node.lineno for node in ast.walk(fn)
                 if isinstance(node, (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))]
        assert not loops, f"{module[:-3]}.{function} loops at lines {loops}"


def test_the_block_toeplitz_index_is_built_in_laurent_alone():
    """`laurent._lags`, built by `np.subtract.outer`, is the package's one
    block-Toeplitz index: `convolve` and `mtto._compress_toeplitz` gather
    through it, so no other module builds an index that way."""
    trees = _package_trees()
    outers = {name: [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                     and node.attr == "outer" and isinstance(node.value, ast.Attribute) and node.value.attr == "subtract"]
              for name, tree in trees.items()}
    assert outers.pop("laurent.py"), "laurent._lags builds its index by np.subtract.outer"
    elsewhere = {name: lines for name, lines in outers.items() if lines}
    assert not elsewhere, f"np.subtract.outer outside laurent.py: {elsewhere}"


def test_the_gram_schmidt_cut_is_read_by_the_one_keep_step_alone():
    """`model_space._kept` is both basis routes' one keep step: the factor
    frames and every panel of the coefficient route keep a column above
    GS_CUT there, and `_triangular_sweep`, which it calls, sweeps past a
    skipped one.  No other function of src/ reads the cut."""
    readers = {(name, owner) for name, tree in _package_trees().items()
               for owner, _ in _owned(tree, lambda node: _named(node, "GS_CUT") and isinstance(node.ctx, ast.Load))}
    assert readers == {("model_space.py", "_kept"), ("model_space.py", "_triangular_sweep")}


def test_arrays_are_frozen_in_numerics_alone():
    """`numerics.frozen` is the package's one way to make an array
    read-only, so `setflags` is named nowhere else in src/."""
    owners = {(name, owner) for name, tree in _package_trees().items()
              for owner, _ in _owned(tree, lambda node: _named(node, "setflags"))}
    assert owners == {("numerics.py", "frozen")}


PROCESS_CACHES = ["cli.build_parser", "laurent._lags", "suite._fixture_basis"]


def _names_a_process_cache(node):
    """Whether a node names `functools.lru_cache` or `functools.cache`, or imports either."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "functools" and any(alias.name in ("lru_cache", "cache") for alias in node.names)
    return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools")


def test_the_process_wide_caches_are_exactly_the_reviewed_ones():
    """A `functools` cache lives as long as the process and hands every
    caller the same result, so each one is a reviewed decision: the parser,
    the block-Toeplitz lag indices and the suite's fixture spaces, all
    read-only.  No other function of src/ is decorated with one, and no
    other line names one."""
    decorated, elsewhere = [], []
    for name, tree in _package_trees().items():
        marks = set()
        for qualname, node, _ in _definitions(tree):
            for decorator in getattr(node, "decorator_list", []):
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if _names_a_process_cache(target):
                    decorated.append(f"{name[:-3]}.{qualname}")
                    marks.add(id(target))
        elsewhere += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if _names_a_process_cache(node) and id(node) not in marks]
    assert sorted(decorated) == PROCESS_CACHES
    assert not elsewhere, f"a functools cache named outside the reviewed decorators: {elsewhere}"


# --- nothing in the package that only the tests use ------------------------------

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _references(node, attributes_only=False):
    """Every name a node reads: bare names and attribute names, or the
    attribute names alone."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return Counter(n.attr if isinstance(n, ast.Attribute) else n.id for n in ast.walk(node) if isinstance(n, kinds))


def _definitions(tree):
    """(qualified name, node, whether it is a method) of every function,
    class and method of a module."""
    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield prefix + child.name, child, isinstance(node, ast.ClassDef)
                yield from visit(child, prefix + child.name + ".")
            else:
                yield from visit(child, prefix)

    return visit(tree, "")


def _tracer_hooks():
    """The attribute names `perfbench/tracer.py` wraps: its TIMED, TIMED_INIT
    and COUNTED lists, and `ModelSpaceBasis.coords`, which `install` wraps by name."""
    spec = importlib.util.spec_from_file_location("_tracer_under_test", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {attr for _, _, attr in tracer.TIMED + tracer.TIMED_INIT + tracer.COUNTED} | {"coords"}


def _overrides(module, qualname):
    """Whether a method overrides one of a base class from outside the package (`_Parser.error`)."""
    owner, _, method = qualname.rpartition(".")
    cls = getattr(importlib.import_module(f"mttokit.{module}"), owner, None)
    return isinstance(cls, type) and any(hasattr(base, method) for base in cls.__mro__[1:]
                                         if not base.__module__.startswith("mttokit"))


def _unread_definitions():
    """(location, short name) of each function, class or method of src/
    that nothing in src/ reads: a function or class is read somewhere in
    src/ outside its own body, and a method is read as an attribute
    (`x.name`) somewhere in src/ outside its own body, so a function of the
    same name does not keep it.  An export in `mttokit.__all__` is no read:
    `__init__` names it in an import and a string, neither of which counts.
    Dunders and overrides of a base class outside the package are read."""
    trees = _package_trees()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    attributes = sum((_references(tree, attributes_only=True) for tree in trees.values()), Counter())
    for name, tree in trees.items():
        for qualname, node, method in _definitions(tree):
            short = node.name
            if short.startswith("__") and short.endswith("__") or _overrides(name[:-3], qualname):
                continue
            reads = (attributes if method else everywhere)[short] - _references(node, attributes_only=method)[short]
            if reads <= 0:
                yield f"{name}:{node.lineno} {qualname}", short


def test_every_definition_has_a_caller_in_the_package():
    """Every definition nothing in src/ reads is hooked by the benchmark's
    tracer.  A name only the tests reach belongs in tests/."""
    hooks = _tracer_hooks()
    dead = [where for where, short in _unread_definitions() if short not in hooks]
    assert not dead, f"defined in src/ but used only outside it: {dead}"


def test_only_the_tracer_keeps_j_operators_nullspace_and_solve_min_norm():
    """The names the tracer's hooks alone keep in src/.  `kernel`,
    `tilde_kernel` and `coords` are the window functions the package
    itself calls; the three left wait for a benchmark that reaches them."""
    assert {short for _, short in _unread_definitions()} == {"j_operators", "nullspace", "solve_min_norm"}


@pytest.mark.parametrize("name", GATED)
def test_the_gated_modules_name_no_vec_laurent(name):
    """Model-space elements are window arrays in the modules that check them."""
    assert "VecLaurent" not in (SRC / name).read_text(encoding="utf-8")


def test_every_attribute_stored_on_self_is_read_in_the_package():
    """An attribute a method stores on `self` is read as an attribute
    (`x.name`, or updated in place) somewhere in src/; one that only the
    tests read is state the package keeps for nothing."""
    stored, read = [], Counter()
    for name, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read[node.target.attr] += 1
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read[node.attr] += 1
            elif isinstance(node.ctx, ast.Store) and isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.append((f"{name}:{node.lineno} self.{node.attr}", node.attr))
    unread = [where for where, attr in stored if not read[attr]]
    assert stored and not unread, f"attributes stored on self that src/ never reads: {unread}"


def test_no_module_level_import_is_unused():
    unused = []
    for name, tree in _package_trees().items():
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                    for elt in node.value.elts}
        imports = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                   and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")]
        read = sum((_references(node) for node in tree.body if node not in imports), Counter())
        for node in imports:
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in read and bound not in exported:
                    unused.append(f"{name}:{node.lineno} {bound}")
    assert not unused, f"unused imports: {unused}"


def _parameters(fn):
    args = fn.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _suite_checks(tree):
    """The names of the checks in suite._REGISTRY, whose signature `run_suite` fixes."""
    registry = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_REGISTRY"])
    return {row.elts[3].id for row in registry.elts}


def test_no_function_takes_a_basis_it_reads_only_for_its_inner():
    """A `basis` parameter read only as `basis.inner` makes every caller
    build a ModelSpaceBasis (projector, Gram-Schmidt, the basis gate) for
    work that reads Theta alone: such a function takes the InnerFunction.
    The suite's checks are exempt: `run_suite` calls each with one signature."""
    trees = _package_trees()
    exempt = _suite_checks(trees["suite.py"])
    only_inner = []
    for name, tree in trees.items():
        for qualname, node, _ in _definitions(tree):
            if isinstance(node, ast.ClassDef) or "basis" not in _parameters(node) or node.name in exempt:
                continue
            parents = {id(child): parent for parent in ast.walk(node) for child in ast.iter_child_nodes(parent)}
            through = {getattr(parents[id(n)], "attr", None) for n in ast.walk(node)
                       if isinstance(n, ast.Name) and n.id == "basis"}
            if through == {"inner"}:
                only_inner.append(f"{name}:{node.lineno} {qualname}")
    assert not only_inner, f"a basis read only as basis.inner: {only_inner}"


def _annotated_class(annotation, classes):
    """The package class an annotation names, bare or as a string, or None."""
    if isinstance(annotation, ast.Name):
        return annotation.id if annotation.id in classes else None
    if isinstance(annotation, ast.Constant) and annotation.value in classes:
        return annotation.value
    return None


def _receiver_class(node, env, classes, returns):
    """The package class of the receiver `node` of an attribute read: a
    class named bare, a name of known class, or a call of a class or of a
    function (or `Class.method`) whose return annotation names one."""
    if isinstance(node, ast.Name):
        return node.id if node.id in classes else env.get(node.id)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name):
            return func.id if func.id in classes else returns.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            return returns.get(f"{func.value.id}.{func.attr}")
    return None


def _method_reads(trees):
    """(class, method) -> reads, for every method name that several package
    classes define, each attribute read credited to the class that defines
    the method for the receiver's class; the class comes from a parameter
    annotation (or `self`), from an assignment of a constructor call or of
    a call whose return annotation names it, and a read whose receiver
    cannot be resolved is credited to every class that defines the name.
    A read inside the method's own body is not counted for it."""
    classes, owners = {}, {}
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = getattr(importlib.import_module(f"mttokit.{name[:-3]}"), node.name)
                for f in node.body:
                    if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        owners.setdefault(f.name, set()).add(node.name)
    shared = {m for m, cls in owners.items() if len(cls) > 1 and not (m.startswith("__") and m.endswith("__"))}
    returns, ambiguous = {}, set()  # qualified name -> the class its return annotation names
    for tree in trees.values():
        for qualname, node, _ in _definitions(tree):
            if not isinstance(node, ast.ClassDef):
                cls = _annotated_class(node.returns, classes)
                if returns.get(qualname, cls) != cls:  # the same name in two modules
                    ambiguous.add(qualname)
                returns[qualname] = cls
    returns = {k: v for k, v in returns.items() if v is not None and k not in ambiguous}

    def definer(cls, method):
        """The package class whose definition of `method` the receiver class `cls` uses."""
        return next((base.__name__ for base in classes[cls].__mro__
                     if base.__name__ in owners[method] and classes[base.__name__] is base), None)

    reads = Counter()
    for tree in trees.values():
        for qualname, node, is_method in _definitions(tree):
            if isinstance(node, ast.ClassDef):
                continue
            env = {p.arg: _annotated_class(p.annotation, classes) for p in node.args.posonlyargs + node.args.args
                   + node.args.kwonlyargs}
            if is_method and _parameters(node):
                env[_parameters(node)[0]] = qualname.rsplit(".", 2)[-2]
            for n in ast.walk(node):
                if isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(n.targets[0], ast.Name):
                    env[n.targets[0].id] = _receiver_class(n.value, env, classes, returns)
            own = (qualname.rsplit(".", 2)[-2], node.name) if is_method else None
            for n in ast.walk(node):
                if isinstance(n, ast.Attribute) and n.attr in shared and isinstance(n.ctx, ast.Load):
                    cls = _receiver_class(n.value, env, classes, returns)
                    credited = {definer(cls, n.attr)} - {None} if cls else owners[n.attr]
                    reads.update((c, n.attr) for c in credited if (c, n.attr) != own)
    return {(cls, m): reads[(cls, m)] for m in shared for cls in owners[m]}


def test_a_method_several_classes_define_is_read_through_its_own_class():
    """`x.dim` keeps the `dim` of the class of x alone, not every class
    that defines one: a method name several package classes share is
    resolved by the receiver's class.  A method no read reaches that way
    (and the tracer does not hook) belongs in tests/."""
    hooks = _tracer_hooks()
    dead = [f"{cls}.{method}" for (cls, method), count in _method_reads(_package_trees()).items()
            if count == 0 and method not in hooks]
    assert not dead, f"methods read through no receiver of their class: {sorted(dead)}"


# --- a Potapov basis forms no md x md array -------------------------------------


def test_a_potapov_basis_forms_no_window_projector_and_runs_no_gram_schmidt(monkeypatch):
    spaces = [fixture(name) for name in FIXTURE_NAMES]
    spaces += [random_inner(d, m, np.random.default_rng(seed)) for d, m, seed in SEEDED]
    spaces.append(make_inner_potapov(*potapov_cell(6, [3] * 80, 1)))  # the n = 240 cell

    def refuse(*args):
        raise AssertionError("a Potapov basis formed the md x md window projector or swept it")

    monkeypatch.setattr(model_space, "window_projector", refuse)
    monkeypatch.setattr(model_space, "_panel_gram_schmidt", refuse)
    for inner in spaces:
        assert ModelSpaceBasis(inner).q.shape == (inner.m * inner.d, inner.n)
    assert spaces[-1].n == 240
