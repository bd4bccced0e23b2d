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
from dataclasses import asdict

import numpy as np
import pytest

from mttokit import laurent, numerics
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit.model_space import ModelSpaceBasis, kernel_frame, tilde_kernel_frame
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
        swapped = tilde_kernel_frame(basis, lam) @ y @ kernel_frame(basis, lam).conj().T  # K~_lam y K_lam*
        ops += [("sandwich", finite_rank(basis, lam, y).mat), ("sandwich", swapped)]
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
def test_no_norm_dispatch_and_no_errstate_in_warm_build_is_mtto_or_recover_symbol(basis, monkeypatch):
    rng = np.random.default_rng(basis.n)
    phi = random_symbol(basis.inner.d, -2, 2, rng)
    a = build(basis, phi).mat
    is_mtto(basis, a)  # fills the basis cache: shift and defect spaces
    calls = []
    real_norm, real_enter = np.linalg.norm, np.errstate.__enter__

    def norm(*args, **kwargs):
        calls.append("norm")
        return real_norm(*args, **kwargs)

    def enter(self):
        calls.append("errstate")
        return real_enter(self)

    monkeypatch.setattr(np.linalg, "norm", norm)
    monkeypatch.setattr(np_linalg, "norm", norm)
    monkeypatch.setattr(np.errstate, "__enter__", enter)
    build(basis, phi)
    assert is_mtto(basis, a).verdict
    is_mtto(basis, _gaussian(basis.n, rng))
    recover_symbol(basis, a)
    assert calls == []


def test_the_toeplitz_offset_index_is_built_once_per_shape():
    offsets = laurent._lags
    offsets.cache_clear()
    rng = np.random.default_rng(3)
    for basis in SPACES:
        phi = random_symbol(basis.inner.d, -2, 2, rng)
        for _ in range(3):
            a = build(basis, phi).mat
            recover_symbol(basis, a)
    shapes = {(2 * basis.inner.m - 1, basis.inner.m) for basis in SPACES}
    info = offsets.cache_info()
    assert info.misses == len(shapes) and info.hits == 6 * len(SPACES) - len(shapes)
    assert info.currsize == len(shapes) <= info.maxsize
    assert not offsets(4, 4).flags.writeable


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
        assert json.loads(canonical_json(asdict(decision)))["distance_bounds"] == [lo, hi]


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


ZEROS = [np.zeros(0), np.zeros((2, 2), dtype=complex), np.zeros((3, 4, 2)), np.zeros(5, dtype=int),
         np.array([-0.0, 0.0, -0.0]), np.array([[complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(-0.0, -0.0), 0j]]),
         np.zeros((4, 6), dtype=complex)[:, ::2]]


@pytest.mark.parametrize("a", ZEROS, ids=range(len(ZEROS)))
def test_an_all_zero_array_reads_numpys_zero_without_the_rescale(a, monkeypatch):
    want = np.linalg.norm(a)
    rescaled = []
    monkeypatch.setattr(np, "abs", lambda x: rescaled.append(x) or np.absolute(x))
    got = frobenius(a)
    assert got == want == 0.0 and np.array_equal(np.copysign(1.0, [got]), [1.0])  # +0.0, as numpy's
    assert rescaled == []


@pytest.mark.parametrize("dtype", [float, complex])
def test_underflowing_and_normal_arrays_keep_their_routes(dtype, monkeypatch):
    rng = np.random.default_rng(7)
    normal = _gaussian(5, rng) if dtype is complex else rng.standard_normal((5, 5))
    assert frobenius(normal).hex() == float(np.linalg.norm(normal)).hex()
    tiny = 1e-170 * normal
    assert np.linalg.norm(tiny) == 0.0  # every square underflows
    big = float(np.abs(tiny).max())
    assert frobenius(tiny) == big * float(np.linalg.norm(np.abs(tiny) / big)) > 0.0
    rescaled = []
    monkeypatch.setattr(np, "abs", lambda x: rescaled.append(x) or np.absolute(x))
    frobenius(tiny)
    assert len(rescaled) >= 1


def test_column_norms_are_numpys_in_range_and_frobenius_outside():
    a = _gaussian(6, np.random.default_rng(5))
    assert np.array_equal(column_norms(a), np.linalg.norm(a, axis=0))  # bit for bit
    scales = np.array([1e300, 1e200, 1.0, 1e-200, 1e-300, 0.0])
    got = column_norms(a * scales)
    assert np.array_equal(got[2], np.linalg.norm(a[:, 2]))
    assert np.array_equal(got, [frobenius(col) for col in (a * scales).T])
    want = scales * np.linalg.norm(a, axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * want)


def test_column_norms_take_no_exactly_zero_column_again(monkeypatch):
    # a zero column reads 0 in numpy's sum; only a column whose squares left
    # the normal range is taken again by the rescaling rule
    a = _gaussian(6, np.random.default_rng(6))
    taken = []
    monkeypatch.setattr(numerics, "frobenius", lambda col: taken.append(col.copy()) or frobenius(col))
    assert not column_norms(np.zeros((6, 4))).any() and taken == []
    a[:, [1, 3]] = 0.0
    a[:, 2] *= 1e-170
    got = column_norms(a)
    assert len(taken) == 1 and np.array_equal(taken[0], a[:, 2])
    assert got[1] == got[3] == 0.0 and got[2] == frobenius(a[:, 2]) > 0.0
    assert np.array_equal(got[[0, 4, 5]], np.linalg.norm(a[:, [0, 4, 5]], axis=0))


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
