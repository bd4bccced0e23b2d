"""Per-space facts are read off the defect data, not measured again by SVD.

`defect_spaces` takes one SVD per kernel frame, in `_frame_svd`, which
fixes rank K0 = rank K0~ = d; it checks I - S S* = K0 K0* and
I - S* S = K0~ K0~* in the Frobenius norm instead of taking the rank and
range of each defect operator by SVD.  `mtto_dimension` is a count on n
and d: on a fresh basis it takes no SVD and caches nothing.
`zero_symbol_decompose` divides by Theta on coefficient arrays with a left
inverse factored once per space by QR, so its one SVD is the operator
norm.  A wrapper around numpy's SVD counts what each call still takes, and
names its caller.  A suite request
scales its roundoff residuals by Frobenius norms; what SVDs it still takes
are pinned per caller and check.
"""

import collections
import os
import sys

import numpy as np
import pytest

import mttokit
from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply
from mttokit.model_operator import OperatorMatrix, defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import mtto_dimension, zero_symbol_decompose
from mttokit.randgen import random_inner, random_symbol
from mttokit.suite import SuiteConfig, run_suite

np_linalg = getattr(np.linalg, "_linalg", np.linalg)  # where np.linalg.norm and pinv look up svd
INNERS = [fixture(name) for name in FIXTURE_NAMES] + [
    random_inner(d, m, np.random.default_rng(40 + d)) for d, m in ((2, 3), (3, 2), (4, 2))
]
IDS = list(FIXTURE_NAMES) + ["random-2x3", "random-3x2", "random-4x2"]


@pytest.fixture
def svd_callers(monkeypatch):
    """Name of the function behind every numpy SVD, in call order."""
    callers = []
    real = np_linalg.svd

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return callers


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_new_basis_takes_one_svd_per_kernel_frame(inner, svd_callers):
    basis = ModelSpaceBasis(inner)
    svd_callers.clear()
    defect_spaces(basis)
    assert svd_callers == ["_frame_svd", "_frame_svd"]


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_mtto_dimension_takes_no_svd_and_leaves_the_cache_empty(inner, svd_callers):
    basis = ModelSpaceBasis(inner)
    svd_callers.clear()
    report = mtto_dimension(basis)
    assert svd_callers == [] and basis.cache == {}
    n, d = basis.n, basis.inner.d
    assert report.dim == 2 * n * d - d * d


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_defect_identities_hold_to_roundoff(inner):
    basis = ModelSpaceBasis(inner)
    ds = defect_spaces(basis)
    s, s_adj = (op.mat for op in s_theta(basis))
    eye = np.eye(basis.n)
    for g, frame in ((eye - s @ s_adj, ds.d_frame), (eye - s_adj @ s, ds.dt_frame)):
        assert np.linalg.norm(g - frame @ frame.conj().T) <= 1e-13


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_perturbed_shift_fails_the_defect_identity(inner):
    basis = ModelSpaceBasis(inner)
    s = s_theta(basis)[0].mat
    rng = np.random.default_rng(basis.n)
    fake = s + 1e-3 * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
    basis.cache["shift"] = (OperatorMatrix(basis, fake), OperatorMatrix(basis, fake.conj().T))
    with pytest.raises(IdentityCheckError, match="I - S S\\* = K0 K0\\*"):
        defect_spaces(basis)


@pytest.fixture
def made_laurents(monkeypatch):
    """Every MatLaurent built, in order."""
    made = []
    real = MatLaurent.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(MatLaurent, "__init__", counted)
    return made


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_zero_symbol_decompose_takes_one_svd_and_builds_only_its_factors(inner, svd_callers, made_laurents, monkeypatch):
    basis = ModelSpaceBasis(inner)
    rng = np.random.default_rng(basis.n + 5)
    theta, d = inner.theta, inner.d
    phi = multiply(theta, random_symbol(d, 0, 2, rng)) + boundary_adjoint(multiply(theta, random_symbol(d, 0, 2, rng)))
    factorizations = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq called"))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: factorizations.append(a) or np_linalg.qr(*a, **k))
    zero_symbol_decompose(basis, phi)
    assert len(factorizations) == 1  # [Theta_1; ...; Theta_m], factored on first use
    svd_callers.clear()
    made_laurents.clear()
    result = zero_symbol_decompose(basis, phi)
    assert result.is_zero and len(factorizations) == 1
    assert svd_callers == ["opnorm"]
    assert made_laurents == [result.psi1, result.psi2]
    outside = phi + MatLaurent.identity(d)
    svd_callers.clear()
    made_laurents.clear()
    refused = zero_symbol_decompose(basis, outside)
    assert not refused.is_zero and svd_callers == ["opnorm"] and made_laurents == []


PACKAGE_DIR = os.path.dirname(mttokit.__file__) + os.sep
# Per suite request of the benchmark's shape: the innermost mttokit function
# that took each SVD, and the check it ran under ("" for the shared spaces).
SUITE_SVDS = {
    ("_frame_svd", "_check_shift_actions"): 12,  # defect_spaces, two frames for each of the six spaces
    ("opnorm", ""): 1,  # random_inner's margin
    ("opnorm", "_check_basis_orthonormal"): 6,
    ("opnorm", "_check_coefficient_unitarity"): 6,
    ("opnorm", "_check_conjugation"): 1,
    ("opnorm", "_check_finite_rank"): 6,
    ("opnorm", "_check_non_members"): 3,
    ("opnorm", "_check_semi_commutator"): 6,
    ("opnorm", "_check_shift_actions"): 6,  # ||S^m||
    ("opnorm", "_check_zero_symbols"): 6,
    ("purity_margin", ""): 6,
    ("purity_margin", "_check_conjugation"): 1,
    ("rank", "_check_finite_rank"): 24,  # rank is the claim there
    ("rank", "_check_worked_example"): 1,
}


def test_suite_request_svds_per_caller(monkeypatch):
    counts = collections.Counter()
    real = np_linalg.svd

    def counted(*args, **kwargs):
        frame, inner, check = sys._getframe(1), None, ""
        while frame is not None:
            if frame.f_code.co_filename.startswith(PACKAGE_DIR):
                inner = inner or frame.f_code.co_name
                if frame.f_code.co_name.startswith("_check_"):
                    check = frame.f_code.co_name
                    break
            frame = frame.f_back
        counts[(inner, check)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_suite(SuiteConfig(seed=7, cases=1, random_inners=((2, 2),)))
    assert report["pass"]
    assert dict(counts) == SUITE_SVDS
    assert sum(counts.values()) == 85
