"""Membership decided on the compressed defect identities.

is_mtto reads both residuals off C* A C - L A L* and C~* A C~ - L~ A L~*,
with C, C~ the complements of the defect spaces and L = C* S, L~ = C~* S*
cached per space; the witnesses are split only when a caller reads them.
The reference is `membership_oracles.split_decision`, the route that split
both identities on every call: verdicts must be equal and residuals agree
to 1e-13 max(1, ||A||_F) on the fixtures, rotated monomial spaces, seeded
spaces and a scale sweep, including n = d, where C is n x 0.  A counting
wrapper shows that a warm is_mtto splits nothing and takes no SVD, and that
recover_symbol splits the plain identity once.  The suite's variants_agree
check compares the split residual with the compressed one.
"""

import numpy as np
import pytest

from mttokit import mtto
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.model_operator import defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, finite_rank, is_mtto, mtto_dimension, recover_symbol
from mttokit.numerics import frobenius
from mttokit.randgen import haar_unitary, random_inner, random_non_member, random_symbol
from mttokit.suite import SuiteConfig, _check_variants_agree, _Context

from membership_oracles import split_decision
from monomial_oracles import monomial_inner


def _spaces():
    named = [(name, fixture(name)) for name in FIXTURE_NAMES]
    named += [(f"monomial-{ms}", monomial_inner(haar_unitary(len(ms), np.random.default_rng(80 + len(ms))), ms)) for ms in ((1, 3), (2, 1, 2), (4,))]
    named += [(f"random-{d}x{m}", random_inner(d, m, np.random.default_rng(90 + d + m))) for d, m in ((1, 5), (2, 3), (3, 2), (4, 2))]
    return [(label, ModelSpaceBasis(inner)) for label, inner in named]


SPACES = _spaces()
IDS = [label for label, _ in SPACES]
BASES = [basis for _, basis in SPACES]
np_linalg = getattr(np.linalg, "_linalg", np.linalg)  # where np.linalg.norm and pinv look up svd


def _gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _operators(basis, rng):
    """Zero, members, Gaussian matrices, finite-rank sandwiches and, where
    the class is not everything, certified non-members."""
    d, n = basis.inner.d, basis.n
    ops = [np.zeros((n, n))]
    ops += [build(basis, random_symbol(d, lo, hi, rng)).mat for lo, hi in ((-3, 3), (0, 2), (-2, 0))]
    ops += [_gaussian(n, rng) for _ in range(3)]
    ops += [finite_rank(basis, lam, _gaussian(d, rng)).mat for lam in (0.0, 0.3 - 0.2j)]
    if mtto_dimension(basis).dim < n * n:
        ops += [random_non_member(basis, rng) for _ in range(2)]
    return ops


def _assert_same_decision(basis, a, bound):
    got, want = is_mtto(basis, a), split_decision(basis, a)
    assert got.verdict is want.verdict
    assert got.tol == want.tol
    for key in ("D", "Dtilde", "shift"):
        assert abs(got.variants[key] - want.variants[key]) <= bound, key
    assert abs(got.residual - want.residual) <= bound
    assert got.residual == max(got.variants["D"], got.variants["Dtilde"])
    assert got.variants["shift"] == got.variants["Dtilde"]  # the same compression, W = C~
    for lazy, split in ((got.witness, want.witness), (got.witness_tilde, want.witness_tilde)):
        assert abs(lazy.residual - split.residual) <= bound
        for mine, theirs in ((lazy.x, split.x), (lazy.y, split.y)):
            assert frobenius(mine - theirs) <= bound
    return got


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_compressed_route_decides_as_the_split_route(basis):
    rng = np.random.default_rng(basis.n + 11)
    for a in _operators(basis, rng):
        _assert_same_decision(basis, a, 1e-13 * max(1.0, frobenius(a)))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e200])
@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_compressed_route_decides_as_the_split_route_at_every_scale(basis, scale):
    rng = np.random.default_rng(basis.n + 12)
    for a in _operators(basis, rng):
        a = scale * a
        bound = 1e-13 * frobenius(a)  # relative: below ||A||_F = 1 this is tighter than max(1, ||A||_F)
        _assert_same_decision(basis, a, bound)


@pytest.mark.parametrize("name", ["FIX1", "FIX4"])
def test_every_operator_is_a_member_when_the_complement_is_empty(name):
    basis = ModelSpaceBasis(fixture(name))
    ds = defect_spaces(basis)
    assert basis.n == basis.inner.d and ds.comp_d.shape == (basis.n, 0) and ds.shift_d.shape == (0, basis.n)
    rng = np.random.default_rng(3)
    for a in (np.zeros((basis.n, basis.n)), _gaussian(basis.n, rng), 1e200 * _gaussian(basis.n, rng)):
        got = _assert_same_decision(basis, a, 0.0)
        assert got.verdict and got.residual == 0.0 and got.variants == {"D": 0.0, "Dtilde": 0.0, "shift": 0.0}
        assert ds.compressed_identities(a).shape == (2, 0, 0)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_cached_compressions_are_the_complements_times_the_shift(basis):
    ds = defect_spaces(basis)
    s, s_adj = s_theta(basis)
    assert np.array_equal(ds.shift_d, ds.comp_d.conj().T @ s.mat)
    assert np.array_equal(ds.shift_dt, ds.comp_dt.conj().T @ s_adj.mat)
    for arr in (ds.shift_d, ds.shift_dt, ds._left, ds._right):
        assert not arr.flags.writeable
    rng = np.random.default_rng(basis.n + 13)
    a = _gaussian(basis.n, rng)
    c, ct = ds.comp_d, ds.comp_dt
    want = [c.conj().T @ (a - s.mat @ a @ s_adj.mat) @ c, ct.conj().T @ (a - s_adj.mat @ a @ s.mat) @ ct]
    got = ds.compressed_identities(a)
    for g, w in zip(got, want):
        assert frobenius(g - w) <= 1e-13 * frobenius(a)


@pytest.fixture
def splits(monkeypatch):
    """Every `_frame_split` call, by the frame it splits over."""
    calls = []
    real = mtto._frame_split

    def counted(delta, frame, kp):
        calls.append(frame)
        return real(delta, frame, kp)

    monkeypatch.setattr(mtto, "_frame_split", counted)
    return calls


@pytest.fixture
def svds(monkeypatch):
    calls = []
    real = np_linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_a_warm_decision_splits_nothing_and_takes_no_svd(basis, splits, svds):
    rng = np.random.default_rng(basis.n + 14)
    a = build(basis, random_symbol(basis.inner.d, -2, 2, rng)).mat
    is_mtto(basis, a)  # fills the basis cache
    splits.clear()
    svds.clear()
    decision = is_mtto(basis, a)
    is_mtto(basis, _gaussian(basis.n, rng))
    decision.to_json()
    assert splits == [] and svds == []
    ds = defect_spaces(basis)
    first = decision.witness
    assert len(splits) == 1 and splits[0] is ds.d_frame
    assert decision.witness is first and len(splits) == 1  # kept once read
    decision.witness_tilde
    assert len(splits) == 2 and splits[1] is ds.dt_frame and svds == []


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_recover_symbol_splits_the_plain_identity_once(basis, splits):
    rng = np.random.default_rng(basis.n + 15)
    a = build(basis, random_symbol(basis.inner.d, -2, 2, rng))
    recover_symbol(basis, a)
    splits.clear()
    recover_symbol(basis, a)
    assert len(splits) == 1 and splits[0] is defect_spaces(basis).d_frame


def test_witnesses_split_the_operator_as_it_was_decided():
    basis = ModelSpaceBasis(fixture("FIX3"))
    rng = np.random.default_rng(16)
    a = build(basis, random_symbol(2, -2, 2, rng)).mat
    want = split_decision(basis, a.copy())
    decision = is_mtto(basis, a)
    a[:] = _gaussian(basis.n, rng)  # the caller reuses its array
    assert np.array_equal(decision.witness.x, want.witness.x)
    assert np.array_equal(decision.witness_tilde.y, want.witness_tilde.y)
    assert not decision.amat.flags.writeable


def test_variants_agree_compares_the_split_route_with_the_compressed_one(monkeypatch):
    """The suite's cross-route check must see a split residual that is off,
    and read more than 0 on working code, where the two routes differ only
    by roundoff."""
    ctx = _Context(SuiteConfig(seed=7, cases=3, fixtures=("FIX2", "FIX3")))
    clean = _check_variants_agree(ctx, np.random.default_rng(1))
    assert 0.0 < clean.max_residual <= 1e-13
    real = mtto._frame_split

    def off(delta, frame, kp):
        split = real(delta, frame, kp)
        split.residual += 1e3
        return split

    monkeypatch.setattr(mtto, "_frame_split", off)
    assert _check_variants_agree(ctx, np.random.default_rng(1)).max_residual > 0.5
