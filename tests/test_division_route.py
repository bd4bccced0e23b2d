"""Division by Theta on coefficient arrays, pinned to the Laurent-object
route it replaced and to block-Toeplitz least squares.

`mtto._divide_by_theta` divides every column of one coefficient array by
Theta at once; `zero_symbol_decompose` runs it once on an analytic or
coanalytic symbol, and on a mixed one with Phi* beside it, fixing both
constant terms with the left inverse the InnerFunction keeps;
`commutant_factor` divides analytic targets with it, and
`factor_through_theta` is `zero_symbol_decompose` on an analytic symbol.
Each must give what the Laurent route of division_oracles gives, on
fixtures, seeded Potapov products and inner functions given by their
coefficients, with d = 1 and m = 1 among them, and on symbols whose support
misses frequency 0.  A symbol wholly at |k| >= m, as far out as 1e12, is
divided at a cost that follows its length, not its frequencies.
"""

import time

import numpy as np
import pytest

from mttokit.errors import IdentityCheckError, NotZeroOperatorError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply, reversed_adjoint
from mttokit.model_space import InnerFunction, ModelSpaceBasis
from mttokit.mtto import _divide_by_theta, commutant_factor, factor_through_theta, zero_symbol_decompose
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
def test_the_division_of_the_analytic_part_is_the_full_division_bit_for_bit(basis):
    # Theta* lowers frequencies, so the target's blocks below 0 never reach
    # the quotient: dropping them must not move a bit of Q or R
    rng = np.random.default_rng(basis.n + 37)
    d, m = basis.inner.d, basis.inner.m
    spans = [(-m - 3, 2), (-m - 3, m + 2), (-m, 0), (-m, m), (-1, 1), (0, 0), (0, m + 1), (m - 1, m + 1),
             (m, m), (m + 2, m + 5), (-m - 4, -1), (-2, -1), (-1, -1), (-10, 10)]
    for lo, hi in spans:
        for columns in (d, 2 * d, 3 * d):
            target = rng.standard_normal((hi - lo + 1, d, columns)) + 1j * rng.standard_normal((hi - lo + 1, d, columns))
            start, quotient, remainder = _divide_by_theta(basis.inner, lo, target)
            want = oracle.full_array_division(basis.inner.blocks, lo, target)
            assert start == want[0], (lo, hi)
            assert quotient.dtype == want[1].dtype and remainder.dtype == want[2].dtype
            assert np.array_equal(quotient, want[1]) and np.array_equal(remainder, want[2]), (lo, hi, columns)
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
        assert result.operator_norm == want.operator_norm
        scale = phi.norm()
        _assert_same_pair(result, (want.psi1, want.psi2), scale)
        _assert_same_pair(result, oracle.lstsq_zero_symbol(basis, phi), scale)
        assert abs(result.residual - want.residual) <= 1e-12 * scale
        assert result.residual <= 1e-12 * scale
        if label in ("shifted", "costar", "theta"):  # one-sided: the other factor is exactly 0
            assert (result.psi1 if label == "costar" else result.psi2).is_zero()
        if label == "zero":
            assert result.psi1.is_zero() and result.psi2.is_zero() and result.residual == 0.0


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_non_zero_symbols_are_refused_with_the_same_operator_norm(basis):
    rng = np.random.default_rng(basis.n + 33)
    d = basis.inner.d
    verdicts = []
    for phi in (random_symbol(d, -2, 2, rng), MatLaurent.identity(d), random_symbol(d, 3, 4, rng).shift(-1)):
        result = zero_symbol_decompose(basis, phi)
        want = oracle.zero_symbol_decompose(basis, phi)
        assert result.is_zero is want.is_zero and result.operator_norm == want.operator_norm
        if not want.is_zero:
            assert result.psi1 is None and result.psi2 is None and result.residual is None
        verdicts.append(result.is_zero)
    assert verdicts[:2] == [False, False]  # z^2 Phi may give the zero operator when m <= 2


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
        assert result.is_zero and result.operator_norm == want.operator_norm
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
def test_commutant_factor_gives_what_the_laurent_route_gives(basis):
    rng = np.random.default_rng(basis.n + 34)
    theta, d = basis.inner.theta, basis.inner.d
    z_eye = MatLaurent(1, np.eye(d)[None])
    for phi in (random_commuting_symbol(basis, rng), random_symbol(d, 0, 2, rng), theta, z_eye, z_eye.shift(3)):
        phi1, res = commutant_factor(basis, phi)
        want, want_res = oracle.commutant_factor(basis, phi)
        scale = phi.norm() * theta.norm()
        hi = max(phi1.hi, want.hi)
        _assert_close(_window(phi1, 0, hi), _window(want, 0, hi), scale, rel=1e-13)
        assert abs(res - want_res) <= 1e-13 * scale


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_factor_through_theta_gives_what_the_laurent_route_gives(basis):
    rng = np.random.default_rng(basis.n + 35)
    theta, d = basis.inner.theta, basis.inner.d
    for psi in (random_symbol(d, 0, 3, rng), random_symbol(d, 2, 4, rng)):
        phi = multiply(theta, psi)
        phi1, res = factor_through_theta(basis, phi)
        want, want_res = oracle.factor_through_theta(basis, phi)
        hi = max(phi1.hi, want.hi)
        _assert_close(_window(phi1, 0, hi), _window(want, 0, hi), phi.norm(), rel=1e-13)
        assert abs(res - want_res) <= 1e-13 * phi.norm()
        _assert_close(_window(phi1, 0, psi.hi), _window(psi, 0, psi.hi), phi.norm())
    outside = MatLaurent.identity(d)
    for route in (factor_through_theta, oracle.factor_through_theta):
        with pytest.raises(NotZeroOperatorError):
            route(basis, outside)


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
            assert result.is_zero and want.is_zero and result.operator_norm == want.operator_norm
            _assert_same_pair(result, (want.psi1, want.psi2), phi.norm())
            assert (result.psi2 if phi.lo > 0 else result.psi1).is_zero()
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
    assert result.is_zero and result.residual <= 1e-13 and other.is_zero()
    assert factor.lo == far - m and np.array_equal(factor.coeffs, reversed_adjoint(theta.coeffs))


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_factor_and_commutant_factor_at_frequency_1e12(name):
    basis = SPACES[name]
    theta, d, far = basis.inner.theta, basis.inner.d, 10**12
    z_far = MatLaurent(far, np.eye(d)[None])
    start = time.perf_counter()
    phi1, res = factor_through_theta(basis, multiply(theta, z_far))
    assert phi1.lo == far and res <= 1e-13 and np.allclose(phi1.coeffs, np.eye(d)[None], atol=1e-14)
    phi1, res = commutant_factor(basis, z_far)  # Phi Theta = Theta Phi for a scalar Phi
    assert phi1.lo == far and res <= 1e-13 and np.allclose(phi1.coeffs, np.eye(d)[None], atol=1e-14)
    assert time.perf_counter() - start < 1.0
