"""Membership decided and symbols recovered on one defect identity.

is_mtto forms Delta = A - S A S* once, and never A - S* A S, and reads
D = ||P Delta P||_F off it with P = I - U U* applied as two rank-d
corrections; the decision is its four numbers and keeps no array, and
`membership_witness` splits either identity on request.  recover_symbol
decides by the same rule, `_membership`, so the two agree at every tol,
and splits Delta once.  The reference is
`membership_oracles.split_decision`, the route that split both identities
on every call and decided on the larger residual: verdicts must be equal
and residuals agree to 1e-13 max(1, ||A||_F) on the fixtures, rotated
monomial spaces, seeded spaces and a scale sweep, including n = d, where
P = 0, where the fixtures with Theta(0) = 0 match the reference exactly.
On that sweep the starred split residual equals D to 1e-13 ||A||_F, and recover_symbol
refuses exactly the operators is_mtto rejects.  A counting wrapper shows
that a warm is_mtto splits nothing and takes no SVD, and that
recover_symbol splits the plain identity once and never calls is_mtto.
`_delta` is the one place either identity is formed.
The defect data is O(nd): its arrays hold at most 8 n d complex entries,
fewer than n^2 on a space with n = 48, d = 2.
The suite's variants_agree check compares the split residual with the
projector one, both read off one starred Delta per case.  An operator of
another space is refused by name at every entry point that takes one.
"""

import numpy as np
import pytest

from mttokit import mtto, suite
from mttokit.errors import DimensionMismatchError, NotMttoError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.model_operator import Conjugation, c_symmetric, defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import (
    build,
    finite_rank,
    is_mtto,
    membership_witness,
    mtto_dimension,
    recover_symbol,
    semi_commutator_residual,
)
from mttokit.numerics import frobenius
from mttokit.randgen import haar_unitary, random_inner, random_non_member, random_projection, random_symbol
from mttokit.suite import SuiteConfig, _check_variants_agree

from membership_oracles import complement, split_decision
from monomial_oracles import monomial_inner


def _spaces():
    named = [(name, fixture(name)) for name in FIXTURE_NAMES]
    named += [(f"monomial-{ms}", monomial_inner(haar_unitary(len(ms), np.random.default_rng(80 + len(ms))), ms)) for ms in ((1, 3), (2, 1, 2), (4,))]
    named += [(f"random-{d}x{m}", random_inner(d, m, np.random.default_rng(90 + d + m))) for d, m in ((1, 5), (2, 3), (3, 2), (4, 2), (2, 24))]
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
    assert abs(got.residual - want.residual) <= bound
    plain, starred = membership_witness(basis, a), membership_witness(basis, a, starred=True)
    assert abs(got.residual - starred.residual) <= bound  # equal in exact arithmetic
    for witness, split in ((plain, want.witness), (starred, want.witness_tilde)):
        assert abs(witness.residual - split.residual) <= bound
        for mine, theirs in ((witness.x, split.x), (witness.y, split.y)):
            assert frobenius(mine - theirs) <= bound
    if got.verdict:
        recover_symbol(basis, a)
    else:
        with pytest.raises(NotMttoError):
            recover_symbol(basis, a)
    return got


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_one_identity_decides_as_the_split_route(basis):
    rng = np.random.default_rng(basis.n + 11)
    for a in _operators(basis, rng):
        _assert_same_decision(basis, a, 1e-13 * max(1.0, frobenius(a)))


@pytest.mark.parametrize("scale", [1e-200, 1e-100, 1e-6, 1.0, 1e6, 1e100, 1e200])
@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_one_identity_decides_as_the_split_route_at_every_scale(basis, scale):
    rng = np.random.default_rng(basis.n + 12)
    for a in _operators(basis, rng):
        a = scale * a
        bound = 1e-13 * frobenius(a)  # relative: below ||A||_F = 1 this is tighter than max(1, ||A||_F)
        _assert_same_decision(basis, a, bound)


def _two_factor_square_space():
    """n = d = 2 from two rank-1 Potapov factors: Theta(0) != 0, so the kernel
    frame K0 is not unitary and its split leaves roundoff."""
    rng = np.random.default_rng(5)
    return make_inner_potapov([random_projection(2, 1, rng), random_projection(2, 1, rng)])


@pytest.mark.parametrize(
    "inner, rel",
    [(fixture("FIX1"), 0.0), (fixture("FIX4"), 0.0), (_two_factor_square_space(), 1e-13)],
    ids=["FIX1", "FIX4", "potapov-1+1"],
)
def test_every_operator_is_a_member_when_the_complement_is_empty(inner, rel):
    """Exact agreement with the reference where Theta(0) = 0 makes K0 unitary;
    roundoff allowed only where it does not."""
    basis = ModelSpaceBasis(inner)
    assert basis.n == basis.inner.d == defect_spaces(basis).dim
    rng = np.random.default_rng(3)
    for a in (np.zeros((basis.n, basis.n)), _gaussian(basis.n, rng), 1e200 * _gaussian(basis.n, rng)):
        got = _assert_same_decision(basis, a, rel * frobenius(a))
        assert got.verdict and got.residual == 0.0
        assert recover_symbol(basis, a, 1e-300).residual <= 1e-8 * frobenius(a)  # P = 0: no tol refuses


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_the_defect_data_is_rank_d_and_the_decision_keeps_no_array(basis):
    ds = defect_spaces(basis)
    s, s_adj = s_theta(basis)
    n, d = basis.n, basis.inner.d
    for arr in vars(ds).values():
        assert not arr.flags.writeable
    assert sum(arr.nbytes for arr in vars(ds).values()) <= 8 * n * d * 16
    rng = np.random.default_rng(basis.n + 13)
    a = _gaussian(n, rng)
    decision = is_mtto(basis, a)
    assert list(vars(decision)) == ["verdict", "residual", "tol", "distance_bounds"]
    assert not any(isinstance(v, np.ndarray) for v in vars(decision).values())
    c, ct = complement(ds.d_frame), complement(ds.dt_frame)
    want = frobenius(c.conj().T @ (a - s.mat @ a @ s_adj.mat) @ c)
    assert abs(decision.residual - want) <= 1e-13 * frobenius(a)
    want_tilde = frobenius(ct.conj().T @ (a - s_adj.mat @ a @ s.mat) @ ct)
    assert abs(membership_witness(basis, a, starred=True).residual - want_tilde) <= 1e-13 * frobenius(a)


@pytest.mark.parametrize("basis", [b for b in BASES if b.n > b.inner.d], ids=[i for i, b in SPACES if b.n > b.inner.d])
def test_recover_symbol_and_is_mtto_agree_at_tol_equal_to_the_residual(basis):
    rng = np.random.default_rng(basis.n + 17)
    member = build(basis, random_symbol(basis.inner.d, -2, 2, rng)).mat
    off = random_non_member(basis, rng)
    a = member + 1e-10 * frobenius(member) / frobenius(off) * off
    residual = is_mtto(basis, a).residual
    assert residual > 0.0
    for tol, member_at_tol in ((residual, True), (np.nextafter(residual, 0.0), False)):
        assert is_mtto(basis, a, tol).verdict is member_at_tol
        if member_at_tol:
            recover_symbol(basis, a, tol)
        else:
            with pytest.raises(NotMttoError):
                recover_symbol(basis, a, tol)


@pytest.fixture
def splits(monkeypatch):
    """Every split of a defect identity, by the frame it splits over."""
    calls = []
    real = mtto._split_coords

    def counted(delta, frame, kp):
        calls.append(frame)
        return real(delta, frame, kp)

    monkeypatch.setattr(mtto, "_split_coords", counted)
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
    membership_witness(basis, a)
    assert len(splits) == 1 and splits[0] is ds.d_frame
    membership_witness(basis, a, starred=True)
    assert len(splits) == 2 and splits[1] is ds.dt_frame and svds == []


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_recover_symbol_splits_the_plain_identity_once(basis, splits, monkeypatch):
    rng = np.random.default_rng(basis.n + 15)
    a = build(basis, random_symbol(basis.inner.d, -2, 2, rng))
    recover_symbol(basis, a)
    splits.clear()
    monkeypatch.setattr(mtto, "is_mtto", lambda *args, **kwargs: pytest.fail("recover_symbol called is_mtto"))
    recover_symbol(basis, a)
    assert len(splits) == 1 and splits[0] is defect_spaces(basis).d_frame


def test_witnesses_are_the_reference_splits_bit_for_bit():
    basis = ModelSpaceBasis(fixture("FIX3"))
    rng = np.random.default_rng(16)
    for a in (build(basis, random_symbol(2, -2, 2, rng)).mat, _gaussian(basis.n, rng)):
        want = split_decision(basis, a)
        for got, split in ((membership_witness(basis, a), want.witness),
                           (membership_witness(basis, a, starred=True), want.witness_tilde)):
            assert np.array_equal(got.x, split.x) and np.array_equal(got.y, split.y)
            assert got.residual == split.residual


@pytest.fixture
def deltas(monkeypatch):
    """The `starred` flag of every defect identity formed, in mtto and in the suite."""
    calls = []
    real = mtto._delta

    def counted(basis, amat, starred=False):
        calls.append(starred)
        return real(basis, amat, starred)

    monkeypatch.setattr(mtto, "_delta", counted)
    monkeypatch.setattr(suite, "_delta", counted)
    return calls


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_is_mtto_forms_the_plain_identity_once_and_the_starred_one_never(basis, deltas):
    rng = np.random.default_rng(basis.n + 18)
    for a in (build(basis, random_symbol(basis.inner.d, -2, 2, rng)).mat, _gaussian(basis.n, rng)):
        deltas.clear()
        is_mtto(basis, a).to_json()
        assert deltas == [False]


def test_variants_agree_forms_the_starred_identity_once_per_case(deltas):
    config = SuiteConfig(seed=7, cases=3, fixtures=("FIX2", "FIX3"))
    for _, basis in suite._spaces(config):
        deltas.clear()
        list(_check_variants_agree(basis, np.random.default_rng(1), config))
        assert deltas == [False, True] * config.cases  # is_mtto's Delta, then the one starred Delta


def test_variants_agree_compares_the_split_route_with_the_projector_one(monkeypatch):
    """The suite's cross-route check must see a split residual that is off,
    and read more than 0 on working code, where the two routes differ only
    by roundoff."""
    config = SuiteConfig(seed=7, cases=3, fixtures=("FIX2", "FIX3"))

    def worst():
        rng = np.random.default_rng(1)
        return max(r for _, basis in suite._spaces(config) for r in _check_variants_agree(basis, rng, config))

    assert 0.0 < worst() <= 1e-13
    real = suite._frame_split

    def off(delta, frame, kp):
        split = real(delta, frame, kp)
        split.residual += 1e3
        return split

    monkeypatch.setattr(suite, "_frame_split", off)  # the suite splits its own starred Delta
    assert worst() > 0.5


def _other_space_operator():
    """An operator of FIX3 (n = 3) and another space of the same dimension."""
    b3 = ModelSpaceBasis(fixture("FIX3"))
    other = ModelSpaceBasis(random_inner(2, 2, np.random.default_rng(1)))
    assert other.n == b3.n and other.basis_id != b3.basis_id
    return b3, other, build(b3, random_symbol(2, -1, 1, np.random.default_rng(0)))


ENTRY_POINTS = {
    "is_mtto": lambda basis, a: is_mtto(basis, a),
    "recover_symbol": lambda basis, a: recover_symbol(basis, a),
    "semi_commutator_residual": lambda basis, a: semi_commutator_residual(
        basis, random_symbol(2, 0, 2, np.random.default_rng(2)), a
    ),
    "c_symmetric": lambda basis, a: c_symmetric(basis, Conjugation(np.eye(2)), a),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
def test_an_operator_of_another_space_is_refused_by_name(entry):
    b3, other, a = _other_space_operator()
    assert is_mtto(b3, a).verdict
    with pytest.raises(DimensionMismatchError) as err:
        ENTRY_POINTS[entry](other, a)
    assert b3.basis_id in str(err.value) and other.basis_id in str(err.value)
    same = ModelSpaceBasis(b3.inner)  # another object for the same space is accepted
    assert same is not b3 and same.basis_id == b3.basis_id
    if entry != "c_symmetric":  # FIX3 is not symmetric for the identity conjugation
        ENTRY_POINTS[entry](same, a)


@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=str)
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_a_non_finite_array_is_refused_by_every_entry_point(entry, value):
    basis = ModelSpaceBasis(fixture("FIX3"))
    raw = np.eye(basis.n, dtype=np.complex128)
    raw[0, 1] = value
    with pytest.raises(ValueError, match="^operator entries must be finite$"):
        ENTRY_POINTS[entry](basis, raw)
