"""Membership and recovery decided in the Frobenius norm.

is_mtto decides on ||C* (A - S A S*) C||_F against REL * ||A||_F, and the
split residual of its starred witness is ||Ct* (A - S* A S) Ct||_F, with C
and Ct orthonormal complements of the two defect spaces; on a basis whose
shift and defect data are cached takes no SVD; recover_symbol checks its
rebuild in the same norm.  The references are in membership_oracles:
the compressions through complements computed here, and the spectral rule
the package used before, whose verdicts the Frobenius rule keeps on
members, certified non-members, Gaussian matrices and finite-rank
sandwiches at every scale.
"""

import json
import warnings

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, finite_rank, is_mtto, membership_witness, mtto_dimension, recover_symbol
from mttokit.numerics import REL, column_norms, frobenius
from mttokit.serialize import canonical_json
from mttokit.randgen import random_inner, random_non_member, random_symbol

from membership_oracles import compressed_defects, spectral_decision


def _spaces():
    inners = [fixture(name) for name in FIXTURE_NAMES]
    inners += [random_inner(d, m, np.random.default_rng(70 + d)) for d, m in ((2, 4), (3, 3), (4, 2), (2, 12))]
    return [ModelSpaceBasis(inner) for inner in inners]


SPACES = _spaces()
np_linalg = getattr(np.linalg, "_linalg", np.linalg)  # where np.linalg.norm and pinv look up svd
IDS = list(FIXTURE_NAMES) + ["random-2x4", "random-3x3", "random-4x2", "random-2x12"]


def _gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _operators(basis, rng):
    """Members, certified non-members, Gaussian matrices, finite-rank
    sandwiches and the zero operator, each labelled."""
    d, n = basis.inner.d, basis.n
    ops = [("zero", np.zeros((n, n)))]
    ops += [("member", build(basis, random_symbol(d, lo, hi, rng)).mat) for lo, hi in ((-3, 3), (0, 2), (-2, 0))]
    ops += [("gaussian", _gaussian(n, rng)) for _ in range(3)]
    for lam in (0.0, 0.3 - 0.2j, -0.6):
        y = _gaussian(d, rng)
        ops += [("sandwich", finite_rank(basis, lam, y).mat), ("sandwich", finite_rank(basis, lam, y, swapped=True).mat)]
    if mtto_dimension(basis).dim < n * n:
        ops += [("non-member", random_non_member(basis, rng)) for _ in range(3)]
    return ops


@pytest.fixture
def svd_calls(monkeypatch):
    """Count every numpy SVD, also those inside np.linalg.norm(., 2) and pinv."""
    calls = []
    real = np_linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_no_svd_in_is_mtto_or_recover_symbol_on_a_warm_basis(basis, svd_calls):
    rng = np.random.default_rng(basis.n)
    a = build(basis, random_symbol(basis.inner.d, -2, 2, rng)).mat
    g = _gaussian(basis.n, rng)
    is_mtto(basis, a)  # fills the basis cache: shift and defect spaces
    del svd_calls[:]
    assert is_mtto(basis, a).verdict
    assert is_mtto(basis, a, 1e-6 * frobenius(a)).verdict
    is_mtto(basis, g)
    is_mtto(basis, g, 0.5)
    recover_symbol(basis, a)
    recover_symbol(basis, a, 1e-6 * frobenius(a))
    assert svd_calls == []


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_residuals_are_the_frobenius_norms_of_the_compressed_identities(basis):
    rng = np.random.default_rng(basis.n + 1)
    for label, a in _operators(basis, rng):
        e, e_tilde = compressed_defects(basis, a)
        want, want_tilde = np.linalg.norm(e), np.linalg.norm(e_tilde)
        decision = is_mtto(basis, a)
        scale = 1e-12 * frobenius(a)
        assert abs(decision.residual - want) <= scale, label
        assert abs(membership_witness(basis, a, starred=True).residual - want_tilde) <= scale, label
        assert decision.tol == REL * np.linalg.norm(a)
        lo, hi = decision.distance_bounds
        assert (lo, hi) == (decision.residual / 2, basis.inner.m * decision.residual)
        assert json.loads(canonical_json(decision.to_json()))["distance_bounds"] == [lo, hi]


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_verdicts_match_the_spectral_rule(basis):
    rng = np.random.default_rng(basis.n + 2)
    for label, a in _operators(basis, rng):
        for scale in (1e-200, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e200):
            want = spectral_decision(basis, scale * a)[0]
            assert is_mtto(basis, scale * a).verdict is want, (label, scale)
            assert want is (label in ("zero", "member", "sandwich") or basis.n == basis.inner.d), (label, scale)


@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1.0, 1e160, 1e200, 1e300])
def test_frobenius_is_safe_at_every_finite_scale(scale):
    rng = np.random.default_rng(4)
    a = _gaussian(6, rng)
    want = np.linalg.norm(a)
    assert abs(frobenius(scale * a) - scale * want) <= 1e-14 * scale * want


def test_column_norms_are_numpys_in_range_and_frobenius_outside():
    a = _gaussian(6, np.random.default_rng(5))
    assert np.array_equal(column_norms(a), np.linalg.norm(a, axis=0))  # bit for bit
    scales = np.array([1e300, 1e200, 1.0, 1e-200, 1e-300, 0.0])
    got = column_norms(a * scales)
    assert np.array_equal(got[2], np.linalg.norm(a[:, 2]))
    assert np.array_equal(got, [frobenius(col) for col in (a * scales).T])
    want = scales * np.linalg.norm(a, axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_a_member_with_a_subnormal_largest_entry_keeps_a_finite_tolerance():
    # the rescale in `frobenius` divides magnitudes: a complex division by
    # a subnormal scalar overflows forming its reciprocal and gave tol nan
    basis = ModelSpaceBasis(fixture("FIX3"))
    member = build(basis, MatLaurent(-1, np.ones((3, 2, 2)))).mat
    a = 1e-310 * member
    assert 0.0 < np.abs(a).max() < np.finfo(float).tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decision = is_mtto(basis, a)
    want = REL * 1e-310 * frobenius(member)  # itself subnormal, so good to a few digits only
    assert decision.verdict and abs(decision.tol - want) <= 1e-3 * want
