"""Recovery from the membership witness, and division by Theta, pinned to
the least-squares routes they replaced.

recover_symbol reads the symbol pair off the split
A - S A S* = X K0* + K0 Y* and fixes the gauge at minimum norm;
mtto._divide_by_theta divides Phi Theta by Theta (through
division_oracles.commutant_quotient); zero_symbol_decompose divides a zero
symbol and its boundary adjoint by Theta.  The references
below solve the same problems by minimum-norm least squares: over the
symbol-pair map for recovery, over the block-Toeplitz matrix of
multiplication by Theta for the commutant, and over the block-Toeplitz
matrix of (Psi1, Psi2) -> Theta Psi1 + (Theta Psi2)* for zero symbols; the
last two live in division_oracles.
"""

import time

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, purity_margin
from mttokit.model_operator import defect_spaces
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, recover_symbol, zero_symbol_decompose
from mttokit.numerics import opnorm, solve_min_norm
from mttokit.randgen import random_commuting_symbol, random_inner, random_symbol

from dimension_oracles import symbol_pair_map
from division_oracles import (
    commutant_quotient,
    lstsq_commutant,
    lstsq_zero_symbol,
    near_impure_space,
    rank_one_space,
    zero_symbol,
)


def _spaces():
    inners = [fixture(name) for name in FIXTURE_NAMES]
    inners.append(random_inner(2, 4, np.random.default_rng(51)))
    inners.append(random_inner(3, 3, np.random.default_rng(52)))
    inners.append(random_inner(4, 2, np.random.default_rng(53)))
    return [ModelSpaceBasis(inner) for inner in inners]


SPACES = _spaces()
IDS = list(FIXTURE_NAMES) + ["random-2x4", "random-3x3", "random-4x2"]


def _window(f: MatLaurent, count: int) -> np.ndarray:
    return np.array([f.coeff(k) for k in range(count)])


def _coords(basis, psi) -> np.ndarray:
    """n x d coordinates of the columns of a standard-space symbol."""
    m, d = basis.inner.m, basis.inner.d
    return basis.q.conj().T @ _window(psi, m).reshape(m * d, d)


def _lstsq_recovery(basis, amat):
    """Minimum-norm least squares over the symbol-pair map."""
    d, m, n = basis.inner.d, basis.inner.m, basis.n
    x, _ = solve_min_norm(symbol_pair_map(basis), amat.reshape(-1))
    f = basis.q.reshape(m, d, n)
    return f @ x[: d * n].reshape(d, n).T, f @ np.conj(x[d * n :]).reshape(d, n).T


def _pair_window(psi1, psi2, count):
    return np.concatenate([_window(psi1, count), _window(psi2, count)])


ZERO_SPACES = SPACES + [rank_one_space(2, 3, 54), rank_one_space(3, 3, 55), rank_one_space(3, 4, 56)]
ZERO_IDS = IDS + ["rank-one-2x3", "rank-one-3x3", "rank-one-3x4"]


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_recovery_matches_least_squares_over_the_pair_map(basis):
    rng = np.random.default_rng(basis.n + 7)
    m, d = basis.inner.m, basis.inner.d
    for lo, hi in ((-3, 3), (0, 2), (-2, 0), (-m, m)):
        a = build(basis, random_symbol(d, lo, hi, rng)).mat
        rec = recover_symbol(basis, a)
        want1, want2 = _lstsq_recovery(basis, a)
        got = np.concatenate([_window(rec.psi1, m), _window(rec.psi2, m)])
        _assert_close(got, np.concatenate([want1, want2]))


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_commutant_quotient_matches_block_toeplitz_least_squares(basis):
    rng = np.random.default_rng(basis.n + 8)
    d = basis.inner.d
    symbols = [random_commuting_symbol(basis.inner, rng), random_symbol(d, 0, 2, rng), basis.inner.theta]
    for phi in symbols:
        phi1, res = commutant_quotient(basis.inner, phi)
        want, want_res = lstsq_commutant(basis, phi)
        count = max(phi1.hi, want.hi) + 1
        _assert_close(_window(phi1, count), _window(want, count))
        assert abs(res - want_res) <= 1e-12 * (1.0 + phi.norm())


@pytest.mark.parametrize("basis", ZERO_SPACES, ids=ZERO_IDS)
def test_zero_symbol_decompose_matches_block_toeplitz_least_squares(basis):
    theta = basis.inner.theta
    assert purity_margin(theta) >= 1e-3
    rng = np.random.default_rng(basis.n + 9)
    d, m = basis.inner.d, basis.inner.m
    for hi1, hi2 in ((0, 0), (2, 1), (1, 3), (m, m)):
        psi1, psi2 = random_symbol(d, 0, hi1, rng), random_symbol(d, 0, hi2, rng)
        phi = zero_symbol(theta, psi1, psi2)
        result = zero_symbol_decompose(basis, phi)
        assert result.is_zero and result.residual <= 1e-12 * phi.norm()
        want1, want2 = lstsq_zero_symbol(basis, phi)
        count = max(result.psi1.hi, result.psi2.hi, want1.hi, want2.hi) + 1
        got = _pair_window(result.psi1, result.psi2, count)
        _assert_close(got, _pair_window(want1, want2, count))
        _assert_close(got, _pair_window(psi1, psi2, count))


@pytest.mark.parametrize("margin", [1e-3, 1e-5, 1e-8])
def test_zero_symbol_decompose_near_the_purity_edge(margin):
    # the constant terms come from a solve whose Gram matrix
    # I - Theta(0)* Theta(0) has smallest eigenvalue about 2 * margin
    basis = near_impure_space(margin)
    theta = basis.inner.theta
    assert margin / 2 <= purity_margin(theta) <= margin
    rng = np.random.default_rng(10)
    for _ in range(5):
        psi1, psi2 = random_symbol(2, 0, 2, rng), random_symbol(2, 0, 2, rng)
        phi = zero_symbol(theta, psi1, psi2)
        result = zero_symbol_decompose(basis, phi)
        assert result.is_zero and result.residual <= 1e-11 * phi.norm()
        count = max(result.psi1.hi, result.psi2.hi, 2) + 1
        err = np.linalg.norm(_pair_window(result.psi1, result.psi2, count) - _pair_window(psi1, psi2, count))
        assert err <= 1e-9 * np.linalg.norm(_pair_window(psi1, psi2, count))


def test_zero_symbol_of_degree_sixty():
    # the block-Toeplitz system here would be about 4356 x 4392 complex entries
    basis = ModelSpaceBasis(random_inner(6, 4, np.random.default_rng(3)))
    rng = np.random.default_rng(4)
    psi1, psi2 = random_symbol(6, 0, 56, rng), random_symbol(6, 0, 56, rng)
    phi = zero_symbol(basis.inner.theta, psi1, psi2)
    assert (phi.lo, phi.hi) == (-60, 60)
    start = time.perf_counter()
    result = zero_symbol_decompose(basis, phi)
    assert time.perf_counter() - start < 1.0
    assert result.is_zero and result.residual <= 1e-12 * phi.norm()
    _assert_close(_pair_window(result.psi1, result.psi2, 57), _pair_window(psi1, psi2, 57))


def test_recovery_at_two_hundred_dimensions():
    # the pair map here would be n^2 x 2nd: 40401 x 2412 complex entries, 1.6 GB
    basis = ModelSpaceBasis(random_inner(6, 60, np.random.default_rng(1)))
    assert basis.n >= 200 and basis.inner.d == 6
    rng = np.random.default_rng(2)
    psi1, psi2 = random_symbol(6, 0, 3, rng), random_symbol(6, 0, 3, rng)
    a = build(basis, psi1 + boundary_adjoint(psi2)).mat
    rec = recover_symbol(basis, a)
    assert rec.residual <= 1e-10 * opnorm(a)
    k0 = defect_spaces(basis).d_frame
    x, y = _coords(basis, rec.psi1), _coords(basis, rec.psi2)
    assert opnorm(k0.conj().T @ x - y.conj().T @ k0) <= 1e-10 * opnorm(a)
