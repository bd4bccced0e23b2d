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

import time

import numpy as np
import pytest

from mttokit.cli import main
from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit import model_operator
from mttokit.model_operator import OperatorMatrix, action_check, defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import build, is_mtto, mtto_dimension
from mttokit.numerics import CHECK_TOL
from mttokit.randgen import haar_unitary, random_projection

from dimension_oracles import svd_counts

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
    return basis, s_theta(basis)[0].mat, defect_spaces(basis)


def test_non_nilpotent_shift_is_refused():
    # ||S^m|| is measured by the suite's shift_actions check, beside action_check
    basis, s, _ = _fresh()
    assert action_check(basis)["pass"]
    fake = s + 0.5 * np.eye(basis.n)
    basis.cache["shift"] = (OperatorMatrix(basis, fake), OperatorMatrix(basis, fake.conj().T))
    assert np.linalg.norm(np.linalg.matrix_power(fake, basis.inner.m)) > CHECK_TOL
    assert not action_check(basis)["pass"]


def test_rank_deficient_kernel_frame_is_refused(monkeypatch):
    # rank K0 is measured once, by the frame SVD in defect_spaces
    basis = _potapov(2, [1, 2, 1], 90)
    frame_of = model_operator.kernel_frame

    def deficient(b, lam):
        frame = frame_of(b, lam).copy()
        frame[:, 1] = frame[:, 0]
        return frame

    monkeypatch.setattr(model_operator, "kernel_frame", deficient)
    a = build(basis, MatLaurent.identity(2))
    with pytest.raises(IdentityCheckError, match="d-dimensional"):
        is_mtto(basis, a)
    with pytest.raises(IdentityCheckError, match="d-dimensional"):
        defect_spaces(basis)
    assert "defects" not in basis.cache


# `mtto dim` on the fixtures as literal bytes: (n, d) = (1, 1), (2, 1), (3, 2),
# (2, 2), (2, 2); dim = 2nd - d^2, that is 2n - 1 for d = 1 and n^2 for n = d
DIM_STDOUT = {
    "FIX1": '{"dim":1,"gauge_dim":1,"linear_reading":1,"matches_linear_reading":true,'
            '"matches_product_reading":true,"operator_space_dim":1,"product_reading":1,"symbol_pair_dim":2}\n',
    "FIX2": '{"dim":3,"gauge_dim":1,"linear_reading":3,"matches_linear_reading":true,'
            '"matches_product_reading":true,"operator_space_dim":4,"product_reading":3,"symbol_pair_dim":4}\n',
    "FIX3": '{"dim":8,"gauge_dim":4,"linear_reading":8,"matches_linear_reading":true,'
            '"matches_product_reading":false,"operator_space_dim":9,"product_reading":14,"symbol_pair_dim":12}\n',
    "FIX4": '{"dim":4,"gauge_dim":4,"linear_reading":4,"matches_linear_reading":true,'
            '"matches_product_reading":true,"operator_space_dim":4,"product_reading":4,"symbol_pair_dim":8}\n',
    "FIX5": '{"dim":4,"gauge_dim":4,"linear_reading":4,"matches_linear_reading":true,'
            '"matches_product_reading":true,"operator_space_dim":4,"product_reading":4,"symbol_pair_dim":8}\n',
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_dim_stdout_is_pinned_on_the_fixtures(capsys, name):
    assert main(["dim", "--theta", name]) == 0
    assert capsys.readouterr().out == DIM_STDOUT[name]
