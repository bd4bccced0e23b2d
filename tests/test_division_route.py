"""Division by Theta on coefficient arrays, pinned to the Laurent-object
route it replaced and to block-Toeplitz least squares.

`mtto._divide_by_theta` divides every column of one coefficient array by
Theta at once; `zero_symbol_decompose` runs it once on an analytic or
coanalytic symbol, and on a mixed one with Phi* beside it, fixing both
constant terms with the left inverse the InnerFunction keeps; on an
analytic symbol it gives Psi2 = 0 and Psi1 = Phi / Theta.  Its branch for
analytic targets divides Phi Theta too (`division_oracles.commutant_quotient`),
whose remainder R bounds the commutator of A_Phi with the shift by
sqrt(K) ||R||_F over the K blocks of R.
Each must give what the Laurent route of division_oracles gives, on
fixtures, seeded Potapov products and inner functions given by their
coefficients, with d = 1 and m = 1 among them, and on symbols whose support
misses frequency 0.  A symbol wholly at |k| >= m, as far out as 1e12, is
divided at a cost that follows its length, not its frequencies.  A zero
verdict certified by the split's remainder carries that bound as its
`operator_norm`; every other verdict is the oracle's SVD norm bit for bit.
"""

import collections
import time

import numpy as np
import pytest

from mttokit import mtto
from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, convolve, multiply, reversed_adjoint
from mttokit.model_operator import s_theta
from mttokit.model_space import InnerFunction, ModelSpaceBasis
from mttokit.mtto import _divide_by_theta, build, zero_symbol_decompose
from mttokit.numerics import opnorm
from mttokit.randgen import haar_unitary, random_commuting_symbol, random_inner, random_symbol

import division_oracles as oracle


def _spaces():
    spaces = {name: fixture(name) for name in FIXTURE_NAMES}
    for d, m in ((1, 4), (2, 3), (3, 2), (3, 1)):
        spaces[f"potapov-{d}x{m}"] = random_inner(d, m, np.random.default_rng(70 + 10 * d + m))
    spaces["coeffs-2x3"] = InnerFunction(MatLaurent(0, random_inner(2, 3, np.random.default_rng(75)).theta.coeffs))
    spaces["coeffs-z-unitary"] = InnerFunction(MatLaurent(1, haar_unitary(2, np.random.default_rng(76))[None]))
    spaces["coeffs-z2-scalar"] = InnerFunction(MatLaurent(2, np.ones((1, 1, 1))))
    return {name: ModelSpaceBasis(inner) for name, inner in spaces.items()}


SPACES = _spaces()
BASES = list(SPACES.values())
IDS = list(SPACES)


def _window(f: MatLaurent, lo: int, hi: int) -> np.ndarray:
    return np.array([f.coeff(k) for k in range(lo, hi + 1)])


def _assert_close(got, want, scale, rel=1e-12):
    assert np.linalg.norm(got - want) <= rel * scale


def _assert_same_pair(result, want, scale, rel=1e-12):
    """Both factors are analytic and agree over their common support."""
    hi = max(result.psi1.hi, result.psi2.hi, want[0].hi, want[1].hi)
    for got, ref in zip((result.psi1, result.psi2), want):
        assert got.lo >= 0
        _assert_close(_window(got, 0, hi), _window(ref, 0, hi), scale, rel)


def _assert_same_norm(result, want, basis, phi):
    """A refusal carries the oracle's SVD norm bit for bit.  A certified
    zero verdict carries the bound that decided it instead, sqrt(2m - 1)
    ||E_{|k|<m}||_F: the oracle's own bound with its E within 1e-15 ||Phi||
    times ||tail_inverse||_2 (both E are rounding of a zero remainder, and
    the constant-term fix through the left inverse of [Theta_1; ...;
    Theta_m] amplifies it; the norm is at least 1 and about (2 margin)^(-1/2)
    at the purity edge), at least the SVD norm up to its roundoff, and at
    most tol."""
    assert result.is_zero is want.is_zero
    if not want.is_zero:
        assert result.operator_norm == want.operator_norm
        return
    scale, root = phi.norm(), np.sqrt(2 * basis.inner.m - 1)
    amplified = root * 1e-15 * scale * np.linalg.norm(basis.inner.tail_inverse, 2)  # rounding of E = 0 through the fix
    assert abs(result.operator_norm - oracle.zero_certificate(basis, phi)) <= amplified
    assert want.operator_norm <= result.operator_norm + 1e-13 * scale
    assert result.operator_norm <= result.tol


def _zero_symbols(basis, rng):
    """Zero-operator symbols: generic, Theta Psi1 shifted by z^2 (support
    above 0), costar-only (Theta Psi2)* (support at or below 0), and 0."""
    theta, d, m = basis.inner.theta, basis.inner.d, basis.inner.m
    psi1, psi2 = random_symbol(d, 0, 2, rng), random_symbol(d, 0, m, rng)
    return {
        "generic": oracle.zero_symbol(theta, psi1, psi2),
        "shifted": multiply(theta, psi1).shift(2),
        "costar": boundary_adjoint(multiply(theta, psi2)),
        "theta": theta,
        "zero": MatLaurent.zero(d),
    }


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_array_division_matches_the_laurent_division(basis):
    rng = np.random.default_rng(basis.n + 31)
    theta, d, m = basis.inner.theta, basis.inner.d, basis.inner.m
    for lo, hi in ((0, 2), (m + 2, m + 4), (-4, -1), (-3, m + 1), (0, 0)):
        f, g = random_symbol(d, lo, hi, rng), random_symbol(d, lo, hi, rng)
        start, quotient, remainder = _divide_by_theta(basis.inner, f.lo, np.concatenate([f.coeffs, g.coeffs], axis=2))
        top, base = max(f.hi, 0), min(f.lo, start)
        assert start == max(lo - m, 0)
        assert quotient.shape[0] == top + 1 - start and remainder.shape[0] == top + m + 1 - base
        for half, target in ((slice(0, d), f), (slice(d, 2 * d), g)):
            want_q, want_r = oracle.divide_by_theta(theta, target)
            _assert_close(quotient[:, :, half], _window(want_q, start, top), target.norm())
            _assert_close(remainder[:, :, half], _window(want_r, base, top + m), target.norm())
            # nothing is left out: the Laurent route is zero below start
            assert not _window(want_q, 0, top).any(axis=(1, 2))[:start].any()
            assert not _window(want_r, min(lo, 0), top + m).any(axis=(1, 2))[: base - min(lo, 0)].any()


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_the_division_of_the_analytic_part_is_the_full_division(basis):
    # Theta* lowers frequencies, so the target's blocks below 0 never reach
    # the quotient: dropping them, and forming only the quotient's blocks,
    # must move Q and R by rounding alone, and not a bit where the
    # arithmetic is exact (integer targets over the dyadic fixtures)
    rng = np.random.default_rng(basis.n + 37)
    d, m = basis.inner.d, basis.inner.m
    exact = np.array_equal(4 * basis.inner.blocks, np.round(4 * basis.inner.blocks))  # FIX1-FIX5, z^2
    spans = [(-m - 3, 2), (-m - 3, m + 2), (-m, 0), (-m, m), (-1, 1), (0, 0), (0, m + 1), (m - 1, m + 1),
             (m, m), (m + 2, m + 5), (-m - 4, -1), (-2, -1), (-1, -1), (-10, 10)]
    for lo, hi in spans:
        for columns in (d, 2 * d, 3 * d):
            shape = (hi - lo + 1, d, columns)
            if exact:
                target = rng.integers(-9, 10, shape) + 1j * rng.integers(-9, 10, shape)
            else:
                target = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            start, quotient, remainder = _divide_by_theta(basis.inner, lo, target)
            want = oracle.full_array_division(basis.inner.blocks, lo, target)
            assert start == want[0], (lo, hi)
            assert quotient.dtype == want[1].dtype and remainder.dtype == want[2].dtype
            assert quotient.shape == want[1].shape and remainder.shape == want[2].shape
            if exact:
                assert quotient.tobytes() == want[1].tobytes() and remainder.tobytes() == want[2].tobytes()
            else:
                bound_q, bound_r = oracle.division_rounding_bounds(basis.inner.blocks, lo, target, want)
                assert (np.abs(quotient - want[1]) <= bound_q).all(), (lo, hi, columns)
                assert (np.abs(remainder - want[2]) <= bound_r).all(), (lo, hi, columns)
            if hi < 0:  # wholly below 0: the quotient is 0 and the remainder is the target
                assert quotient.shape[0] == 1 and not quotient.any()
                assert np.array_equal(remainder[: hi - lo + 1], target) and not remainder[hi - lo + 1 :].any()


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_zero_symbol_decompose_matches_the_laurent_route_and_least_squares(basis):
    rng = np.random.default_rng(basis.n + 32)
    for label, phi in _zero_symbols(basis, rng).items():
        result = zero_symbol_decompose(basis, phi)
        want = oracle.zero_symbol_decompose(basis, phi)
        assert result.is_zero and want.is_zero, label
        _assert_same_norm(result, want, basis, phi)
        scale = phi.norm()
        _assert_same_pair(result, (want.psi1, want.psi2), scale)
        _assert_same_pair(result, oracle.lstsq_zero_symbol(basis, phi), scale)
        assert abs(result.residual - want.residual) <= 1e-12 * scale
        assert result.residual <= 1e-12 * scale
        if label in ("shifted", "costar", "theta"):  # one-sided: the other factor is exactly 0
            assert not (result.psi1 if label == "costar" else result.psi2).coeffs.any()
        if label == "zero":
            assert not result.psi1.coeffs.any() and not result.psi2.coeffs.any() and result.residual == 0.0


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_non_zero_symbols_are_refused_with_the_same_operator_norm(basis):
    rng = np.random.default_rng(basis.n + 33)
    d = basis.inner.d
    verdicts = []
    for phi in (random_symbol(d, -2, 2, rng), MatLaurent.identity(d), random_symbol(d, 3, 4, rng).shift(-1)):
        result = zero_symbol_decompose(basis, phi)
        want = oracle.zero_symbol_decompose(basis, phi)
        _assert_same_norm(result, want, basis, phi)
        if not want.is_zero:
            assert result.psi1 is None and result.psi2 is None and result.residual is None
        verdicts.append(result.is_zero)
    assert verdicts[:2] == [False, False]  # z^2 Phi may give the zero operator when m <= 2


def test_verdicts_agree_with_the_operator_norm_and_an_uncertified_zero_falls_back(monkeypatch):
    # zero symbols, and the same moved by delta ||Phi|| off the zero class:
    # every outcome is the SVD route's, and near an impure Theta, where E
    # can exceed A_Phi by orders of magnitude, the bound misses zeros that
    # the operator norm then decides
    builds = []
    monkeypatch.setattr(mtto, "build", lambda *a: builds.append(a) or build(*a))
    spaces = dict(SPACES, **{f"impure-{margin}": oracle.near_impure_space(margin) for margin in (1e-3, 1e-5, 1e-8)})
    routes = collections.Counter()
    for name, basis in spaces.items():
        rng = np.random.default_rng(basis.n + 41)
        d = basis.inner.d
        for label, phi in _zero_symbols(basis, rng).items():
            step = random_symbol(d, -2, 2, rng)
            for delta in (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6):
                moved = phi + step * (delta * phi.norm() / step.norm())
                outcome = []
                for route in (zero_symbol_decompose, oracle.zero_symbol_decompose):
                    builds.clear()
                    try:
                        result = route(basis, moved)
                    except IdentityCheckError:  # an operator norm <= tol with no split within 1e-8 ||Phi||
                        result = None
                    outcome.append(("refused" if result is None else result.is_zero, bool(builds), result))
                (got, fell_back, result), (want, _, svd) = outcome
                assert got == want, (name, label, delta)
                routes[got, fell_back] += 1
                if fell_back and result is not None:  # the operator norm decided, as it does in the oracle
                    assert result.operator_norm == svd.operator_norm
    assert routes[True, False] and routes[False, True]  # certified zeros, and refusals by the norm
    assert routes[True, True]  # zeros the bound left to the operator norm
    assert not routes[False, False] and not routes["refused", False]  # only the norm refuses


@pytest.mark.parametrize("margin", [1e-3, 1e-5, 1e-8])
def test_zero_symbol_decompose_at_the_purity_edge_matches_the_laurent_route(margin):
    # [Theta_1; ...; Theta_m] has smallest singular value about sqrt(2 * margin):
    # a QR keeps its condition number, normal equations would square it
    basis = oracle.near_impure_space(margin)
    rng = np.random.default_rng(11)
    for _ in range(5):
        psi1, psi2 = random_symbol(2, 0, 2, rng), random_symbol(2, 0, 2, rng)
        phi = oracle.zero_symbol(basis.inner.theta, psi1, psi2)
        result = zero_symbol_decompose(basis, phi)
        want = oracle.zero_symbol_decompose(basis, phi)
        assert result.is_zero
        _assert_same_norm(result, want, basis, phi)
        _assert_same_pair(result, (want.psi1, want.psi2), phi.norm())
        _assert_same_pair(result, (psi1, psi2), phi.norm(), rel=1e-9)
        assert result.residual <= 1e-11 * phi.norm()


def test_zero_symbol_of_degree_sixty_matches_the_laurent_route():
    basis = ModelSpaceBasis(random_inner(6, 4, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    psi1, psi2 = random_symbol(6, 0, 56, rng), random_symbol(6, 0, 56, rng)
    phi = oracle.zero_symbol(basis.inner.theta, psi1, psi2)
    result = zero_symbol_decompose(basis, phi)
    want = oracle.zero_symbol_decompose(basis, phi)
    _assert_same_pair(result, (want.psi1, want.psi2), phi.norm())
    assert abs(result.residual - want.residual) <= 1e-12 * phi.norm()


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_the_division_of_an_analytic_target_gives_what_the_laurent_route_gives(basis):
    rng = np.random.default_rng(basis.n + 34)
    theta, d = basis.inner.theta, basis.inner.d
    z_eye = MatLaurent(1, np.eye(d)[None])
    for phi in (random_commuting_symbol(basis.inner, rng), random_symbol(d, 0, 2, rng), theta, z_eye, z_eye.shift(3)):
        phi1, res = oracle.commutant_quotient(basis.inner, phi)
        want, want_res = oracle.commutant_factor(basis, phi)
        scale = phi.norm() * theta.norm()
        hi = max(phi1.hi, want.hi)
        _assert_close(_window(phi1, 0, hi), _window(want, 0, hi), scale, rel=1e-13)
        assert abs(res - want_res) <= 1e-13 * scale


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_the_commutant_remainder_bounds_the_commutator(basis):
    """||A_Phi S - S A_Phi|| <= sqrt(K) residual on commuting draws, where
    both sides are roundoff, and on draws moved off the commutant."""
    rng = np.random.default_rng(basis.n + 36)
    inner, s = basis.inner, s_theta(basis)[0]
    for _ in range(5):
        commuting = random_commuting_symbol(basis.inner, rng)
        for phi in (commuting, commuting + 1e-6 * random_symbol(inner.d, 0, 2, rng),
                    commuting + random_symbol(inner.d, 0, 2, rng)):
            _, res = oracle.commutant_quotient(basis.inner, phi)
            blocks = _divide_by_theta(inner, phi.lo, convolve(phi.coeffs, inner.blocks))[2].shape[0]
            a = build(basis, phi).mat
            assert opnorm(a @ s - s @ a) <= np.sqrt(blocks) * res


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_an_analytic_zero_symbol_gives_what_the_laurent_route_gives(basis):
    rng = np.random.default_rng(basis.n + 35)
    theta, d = basis.inner.theta, basis.inner.d
    for psi in (random_symbol(d, 0, 3, rng), random_symbol(d, 2, 4, rng)):
        phi = multiply(theta, psi)
        result = zero_symbol_decompose(basis, phi)
        assert result.is_zero and not result.psi2.coeffs.any()
        phi1, res = result.psi1, result.residual
        want, want_res = oracle.factor_through_theta(basis, phi)
        hi = max(phi1.hi, want.hi)
        _assert_close(_window(phi1, 0, hi), _window(want, 0, hi), phi.norm(), rel=1e-13)
        assert abs(res - want_res) <= 1e-13 * phi.norm()
        _assert_close(_window(phi1, 0, psi.hi), _window(psi, 0, psi.hi), phi.norm())
    outside = MatLaurent.identity(d)
    assert not zero_symbol_decompose(basis, outside).is_zero
    assert oracle.factor_through_theta(basis, outside) is None


def test_a_broken_constant_term_solve_is_refused(monkeypatch):
    # with Theta(0) != 0 a mixed symbol's quotients need a constant-term
    # correction, and dropping it must fail the 1e-8 ||Phi|| gate; an analytic
    # or coanalytic symbol takes the closed form, which never reads it
    rng = np.random.default_rng(54)
    for basis in (oracle.rank_one_space(2, 3, 54), SPACES["FIX5"]):
        theta, d = basis.inner.theta, basis.inner.d
        psi1, psi2 = random_symbol(d, 0, 2, rng), random_symbol(d, 0, 2, rng)
        assert np.abs(basis.inner.blocks[0]).max() > 0.1
        one_sided = [multiply(theta, psi1), boundary_adjoint(multiply(theta, psi2))]
        before = [zero_symbol_decompose(basis, phi) for phi in one_sided]
        mixed = oracle.zero_symbol(theta, psi1, psi2)
        zero_symbol_decompose(basis, mixed)
        monkeypatch.setattr(basis.inner, "tail_inverse", np.zeros_like(basis.inner.tail_inverse))
        for phi, want in zip(one_sided, before):
            got = zero_symbol_decompose(basis, phi)
            assert got.residual == want.residual
            for a, b in ((got.psi1, want.psi1), (got.psi2, want.psi2)):
                assert a.lo == b.lo and np.array_equal(a.coeffs, b.coeffs)
        with pytest.raises(IdentityCheckError, match="failed to decompose"):
            zero_symbol_decompose(basis, mixed)


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_a_symbol_wholly_at_or_beyond_the_degree_matches_the_laurent_route(basis):
    # Phi = Theta (Theta* Phi) for Phi at k >= m, and the mirror image at k <= -m
    rng = np.random.default_rng(basis.n + 36)
    d, m = basis.inner.d, basis.inner.m
    for lo in (m, m + 3, 1000):
        for phi in (random_symbol(d, lo, lo + 2, rng), random_symbol(d, -lo - 2, -lo, rng)):
            result = zero_symbol_decompose(basis, phi)
            want = oracle.zero_symbol_decompose(basis, phi)
            assert result.is_zero and want.is_zero
            _assert_same_norm(result, want, basis, phi)
            _assert_same_pair(result, (want.psi1, want.psi2), phi.norm())
            assert not (result.psi2 if phi.lo > 0 else result.psi1).coeffs.any()
            assert abs(result.residual - want.residual) <= 1e-12 * phi.norm()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("sign", [1, -1])
def test_a_symbol_at_frequency_1e12_takes_the_closed_form_at_once(name, sign):
    basis = SPACES[name]
    theta, d, m = basis.inner.theta, basis.inner.d, basis.inner.m
    far = 10**12
    start = time.perf_counter()
    result = zero_symbol_decompose(basis, MatLaurent(sign * far, np.eye(d)[None]))
    assert time.perf_counter() - start < 1.0
    factor, other = (result.psi1, result.psi2) if sign > 0 else (result.psi2, result.psi1)
    assert result.is_zero and result.residual <= 1e-13 and not other.coeffs.any()
    assert factor.lo == far - m and np.array_equal(factor.coeffs, reversed_adjoint(theta.coeffs))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_analytic_targets_at_frequency_1e12_are_divided_at_once(name):
    basis = SPACES[name]
    theta, d, far = basis.inner.theta, basis.inner.d, 10**12
    z_far = MatLaurent(far, np.eye(d)[None])
    start = time.perf_counter()
    result = zero_symbol_decompose(basis, multiply(theta, z_far))
    phi1, res = result.psi1, result.residual
    assert result.is_zero and not result.psi2.coeffs.any()
    assert phi1.lo == far and res <= 1e-13 and np.allclose(phi1.coeffs, np.eye(d)[None], atol=1e-14)
    phi1, res = oracle.commutant_quotient(basis.inner, z_far)  # Phi Theta = Theta Phi for a scalar Phi
    assert phi1.lo == far and res <= 1e-13 and np.allclose(phi1.coeffs, np.eye(d)[None], atol=1e-14)
    assert time.perf_counter() - start < 1.0
