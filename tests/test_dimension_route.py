"""The class dimension, pinned to the SVD counts and to the command line.

mtto_dimension reads the count 2nd - d^2 off n and d, with nothing
measured: rank K0 = d and S^m = 0 hold on every basis of a pure Theta.
The references count the class by SVD of the n^2 x 2nd symbol-pair map
and of the n^2 x n^2 Stein constraint.  The two refusals that guard those
facts live where they still run: `defect_spaces` (and with it `is_mtto`)
refuses a rank-deficient kernel frame, and `action_check` fails on a
shift that is not the compressed shift.  `mtto dim` writes literal bytes
on the fixtures: 2n - 1 for d = 1 and n^2 for n = d.
"""

import json
import time
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from mttokit import cli, model_space, serialize
from mttokit.cli import main
from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit import model_operator
from mttokit.model_operator import action_check, defect_spaces, s_theta
from mttokit.model_space import InnerFunction, ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import build, is_mtto, mtto_dimension
from mttokit.numerics import CHECK_TOL
from mttokit.randgen import haar_unitary, random_projection
from mttokit.serialize import canonical_json

from dimension_oracles import svd_counts
from json_files import dump_json_file, inner_to_json

RANDOM_SHAPES = [(1, [1] * 6), (1, [1] * 12), (2, [1, 2, 1, 2]), (2, [2, 1, 2, 2, 1, 2]), (4, [3, 3, 3]),
                 (4, [2, 4, 1, 3]), (7, [4, 4]), (7, [5, 6])]


def _potapov(d, ranks, seed):
    rng = np.random.default_rng(seed)
    factors = [random_projection(d, r, rng) for r in ranks]
    return ModelSpaceBasis(make_inner_potapov(factors, left_unitary=haar_unitary(d, rng)))


SPACES = [ModelSpaceBasis(fixture(name)) for name in FIXTURE_NAMES] + [
    _potapov(d, ranks, 70 + k) for k, (d, ranks) in enumerate(RANDOM_SHAPES)
]
IDS = list(FIXTURE_NAMES) + [f"d{d}n{sum(ranks)}" for d, ranks in RANDOM_SHAPES]


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_dimension_equals_both_svd_counts(basis):
    n, d = basis.n, basis.inner.d
    assert n <= 12
    report = mtto_dimension(basis)
    assert (report.dim, report.dim) == svd_counts(basis)
    assert report.dim == 2 * n * d - d * d
    assert report.gauge_dim == d * d


def test_dimension_at_sixty_dimensions_is_fast():
    # the Stein constraint here would be 3600 x 3600, an O(n^6) SVD
    basis = _potapov(4, [3] * 20, 80)
    assert basis.n == 60
    start = time.perf_counter()
    report = mtto_dimension(basis)
    assert time.perf_counter() - start < 1.0
    assert report.dim == 2 * 60 * 4 - 16


def _fresh():
    basis = _potapov(2, [1, 2, 1], 90)
    return basis, s_theta(basis)[0], defect_spaces(basis)


def test_non_nilpotent_shift_is_refused():
    # ||S^m|| is measured by the suite's shift_actions check, beside action_check
    basis, s, _ = _fresh()
    assert action_check(basis)["pass"]
    fake = s + 0.5 * np.eye(basis.n)
    basis.cache["shift"] = (fake, fake.conj().T)
    assert np.linalg.norm(np.linalg.matrix_power(fake, basis.inner.m)) > CHECK_TOL
    assert not action_check(basis)["pass"]


def test_rank_deficient_kernel_frame_is_refused(monkeypatch):
    # a frame with a repeated column has left the model space: the frame check
    # of defect_spaces refuses it before any SVD, which trusts the rank d purity gives
    basis = _potapov(2, [1, 2, 1], 90)
    frame_of = model_operator.kernel_frame

    def deficient(b, lam):
        frame = frame_of(b, lam).copy()
        frame[:, 1] = frame[:, 0]
        return frame

    monkeypatch.setattr(model_operator, "kernel_frame", deficient)
    a = build(basis, MatLaurent.constant(np.eye(2)))
    with pytest.raises(IdentityCheckError, match="kernel frame at 0 left the model space"):
        is_mtto(basis, a)
    with pytest.raises(IdentityCheckError, match="kernel frame at 0 left the model space"):
        defect_spaces(basis)
    assert "defects" not in basis.cache


# `mtto dim` on the fixtures as literal bytes: (n, d) = (1, 1), (2, 1), (3, 2),
# (2, 2), (2, 2); dim = 2nd - d^2, that is 2n - 1 for d = 1 and n^2 for n = d
DIM_STDOUT = {
    "FIX1": '{"dim":1,"gauge_dim":1,"operator_space_dim":1,"schema_version":1,"symbol_pair_dim":2}\n',
    "FIX2": '{"dim":3,"gauge_dim":1,"operator_space_dim":4,"schema_version":1,"symbol_pair_dim":4}\n',
    "FIX3": '{"dim":8,"gauge_dim":4,"operator_space_dim":9,"schema_version":1,"symbol_pair_dim":12}\n',
    "FIX4": '{"dim":4,"gauge_dim":4,"operator_space_dim":4,"schema_version":1,"symbol_pair_dim":8}\n',
    "FIX5": '{"dim":4,"gauge_dim":4,"operator_space_dim":4,"schema_version":1,"symbol_pair_dim":8}\n',
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dim_stdout_is_pinned_on_the_fixtures(capsys, name):
    assert main(["dim", "--theta", name]) == 0
    assert capsys.readouterr().out == DIM_STDOUT[name]


def test_report_of_a_space_with_n_equal_to_d_1400_serializes():
    # an admitted window (m = 1, m*d = 1400); 2n^d - d^2 would have had more
    # than 4300 digits, past what Python converts from int to str
    doc = asdict(mtto_dimension(SimpleNamespace(n=1400, d=1400)))
    assert canonical_json(doc) == ('{"dim":1960000,"gauge_dim":1960000,"operator_space_dim":1960000,'
                                   '"symbol_pair_dim":3920000}')


def _theta_files(tmp_path):
    """--theta sources of the three kinds: a fixture, a Potapov file and a coeffs file."""
    rng = np.random.default_rng(95)
    factors, u = [random_projection(3, r, rng) for r in (1, 2, 2)], haar_unitary(3, rng)
    inner = make_inner_potapov(factors, u)
    dump_json_file(tmp_path / "potapov.json", inner_to_json(inner, factors, u))
    dump_json_file(tmp_path / "coeffs.json", {"kind": "coeffs", "laurent": serialize.laurent_to_json(inner.theta)})
    return {"fixture": "FIX5", "potapov": str(tmp_path / "potapov.json"), "coeffs": str(tmp_path / "coeffs.json")}


@pytest.mark.parametrize("kind", ["fixture", "potapov", "coeffs"])
def test_dim_builds_no_basis_and_no_projector(tmp_path, capsys, monkeypatch, kind):
    source = _theta_files(tmp_path)[kind]
    report = asdict(mtto_dimension(ModelSpaceBasis(InnerFunction(*cli._theta(source)))))
    want = canonical_json({"schema_version": 1, **report}) + "\n"
    monkeypatch.setattr(cli, "ModelSpaceBasis", lambda inner: pytest.fail("basis built"))
    monkeypatch.setattr(model_space, "window_projector", lambda blocks: pytest.fail("projector formed"))
    assert main(["dim", "--theta", source]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("kind", ["fixture", "potapov", "coeffs"])
def test_space_basis_builds_one_basis_and_a_projector_for_coeffs_alone(tmp_path, capsys, monkeypatch, kind):
    source, built = _theta_files(tmp_path)[kind], []
    basis_of, projector_of = cli.ModelSpaceBasis, model_space.window_projector
    monkeypatch.setattr(cli, "ModelSpaceBasis", lambda inner: built.append("basis") or basis_of(inner))
    monkeypatch.setattr(model_space, "window_projector", lambda blocks: built.append("projector") or projector_of(blocks))
    assert main(["space", "basis", "--theta", source]) == 0
    assert built == (["basis", "projector"] if kind == "coeffs" else ["basis"])  # a Potapov basis reads its factors


@pytest.mark.parametrize("kind, route", [("fixture", "_factor_basis"), ("coeffs", "_panel_gram_schmidt")])
def test_dim_runs_no_basis_count_check(tmp_path, capsys, monkeypatch, kind, route):
    # a basis one direction short: `space basis` refuses it, `dim` never builds it
    source = _theta_files(tmp_path)[kind]
    n = InnerFunction(*cli._theta(source)).n
    assert main(["dim", "--theta", source]) == 0
    want = capsys.readouterr().out
    columns = getattr(model_space, route)
    monkeypatch.setattr(model_space, route, lambda *args: columns(*args)[:, :-1])
    assert main(["space", "basis", "--theta", source]) == 1
    assert f"basis column count {n - 1}, projector trace {n}" in json.loads(capsys.readouterr().err)["message"]
    assert main(["dim", "--theta", source]) == 0
    assert capsys.readouterr().out == want


_REFUSED = {  # payload: (exit status, error code) of both `dim` and `space basis`
    "not inner": ({"kind": "coeffs", "laurent": {"dim": 1, "lo": 0, "coeffs": [[[[0.5, 0]]], [[[0.5, 0]]]]}},
                  (1, "E_NOT_INNER")),
    "overflowing": ({"kind": "coeffs", "laurent": {"dim": 1, "lo": 0, "coeffs": [[[[1e154, 0]]], [[[1e154, 0]]]]}},
                    (1, "E_NOT_INNER")),
    "not pure": ({"kind": "potapov", "factors": [serialize.matrix_to_json(np.diag([1.0, 0.0]))]}, (1, "E_NOT_PURE")),
    "not a projection": ({"kind": "potapov", "factors": [serialize.matrix_to_json(np.full((2, 2), 0.7))]},
                         (1, "E_NOT_PROJECTION")),
    "not unitary": ({"kind": "potapov", "left_unitary": serialize.matrix_to_json(2 * np.eye(2)),
                     "factors": [serialize.matrix_to_json(np.eye(2))]}, (1, "E_NOT_UNITARY")),
    "window": ({"kind": "coeffs", "laurent": {"dim": 1, "lo": 10**6, "coeffs": [[[[1.0, 0.0]]]]}}, (2, "E_PARSE")),
    "factor window": ({"kind": "potapov", "factors": [serialize.matrix_to_json(np.eye(2))] * 1025}, (2, "E_PARSE")),
    "unknown kind": ({"kind": "spline"}, (2, "E_PARSE")),
    "no factors": ({"kind": "potapov", "factors": []}, (2, "E_PARSE")),
    "ragged factor": ({"kind": "potapov", "factors": [[[[1, 0]], [[0, 0], [1, 0]]]]}, (2, "E_PARSE")),
}


@pytest.mark.parametrize("payload", sorted(_REFUSED))
@pytest.mark.parametrize("argv", [["dim"], ["space", "basis"]])
def test_dim_refuses_what_the_basis_route_refuses(tmp_path, capsys, payload, argv):
    doc, (status, code) = _REFUSED[payload]
    dump_json_file(tmp_path / "theta.json", doc)
    assert main([*argv, "--theta", str(tmp_path / "theta.json")]) == status
    captured = capsys.readouterr()
    assert captured.out == "" and json.loads(captured.err)["error"] == code
