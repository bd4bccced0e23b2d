"""The class dimension, pinned to the SVD counts.

mtto_dimension counts the class as 2nd - d^2, with rank K0 = d measured by
the frame SVD of defect_spaces, and as n^2 - (rank P)^2 = n^2 - (n - d)^2
once S^m = 0 is measured.  The references count it by SVD of the n^2 x 2nd
symbol-pair map and of the n^2 x n^2 Stein constraint; a measurement that
fails its condition must raise.
"""

import time

import numpy as np
import pytest

from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit import model_operator
from mttokit.model_operator import OperatorMatrix, defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import mtto_dimension
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
    assert report.rank_p_perp == n - d
    assert report.nilpotency_residual <= CHECK_TOL
    assert report.gauge_dim == d * d
    assert "rank_p_perp" not in report.to_json() and "nilpotency_residual" not in report.to_json()


def test_dimension_at_sixty_dimensions_is_fast():
    # the Stein constraint here would be 3600 x 3600, an O(n^6) SVD
    basis = _potapov(4, [3] * 20, 80)
    assert basis.n == 60
    start = time.perf_counter()
    report = mtto_dimension(basis)
    assert time.perf_counter() - start < 1.0
    assert report.dim == 2 * 60 * 4 - 16 and report.rank_p_perp == 56


def _fresh():
    basis = _potapov(2, [1, 2, 1], 90)
    return basis, s_theta(basis)[0].mat, defect_spaces(basis)


def test_non_nilpotent_shift_is_refused():
    basis, s, _ = _fresh()
    fake = s + 0.5 * np.eye(basis.n)
    basis.cache["shift"] = (OperatorMatrix(basis, fake), OperatorMatrix(basis, fake.conj().T))
    with pytest.raises(IdentityCheckError, match="nilpotent"):
        mtto_dimension(basis)


def test_rank_deficient_kernel_frame_is_refused(monkeypatch):
    # rank K0 is measured once, by the frame SVD in defect_spaces
    basis = _potapov(2, [1, 2, 1], 90)
    frame_of = model_operator.kernel_frame

    def deficient(b, lam):
        frame = frame_of(b, lam).copy()
        frame[:, 1] = frame[:, 0]
        return frame

    monkeypatch.setattr(model_operator, "kernel_frame", deficient)
    with pytest.raises(IdentityCheckError, match="d-dimensional"):
        mtto_dimension(basis)
