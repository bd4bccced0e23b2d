"""Recovery from the membership witness, and division by Theta, pinned to
the least-squares routes they replaced.

recover_symbol reads the symbol pair off the split
A - S A S* = X K0* + K0 Y* and fixes the gauge at minimum norm;
commutant_factor divides Phi Theta by Theta.  The references below solve
the same problems by minimum-norm least squares: over the symbol-pair
map for recovery, and over the block-Toeplitz matrix of multiplication
by Theta for the commutant.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply
from mttokit.model_operator import defect_spaces
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import _symbol_pair_map, build, commutant_factor, recover_symbol
from mttokit.numerics import block_toeplitz, opnorm, solve_min_norm
from mttokit.randgen import random_commuting_symbol, random_inner, random_symbol


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
    x, _ = solve_min_norm(_symbol_pair_map(basis), amat.reshape(-1))
    f = basis.q.reshape(m, d, n)
    return f @ x[: d * n].reshape(d, n).T, f @ np.conj(x[d * n :]).reshape(d, n).T


def _lstsq_commutant(basis, phi):
    """Minimum-norm least squares for Theta Phi1 = Phi Theta over the
    coefficients of Phi1 up to degree phi.hi + m."""
    theta = basis.inner.theta
    d, m = basis.inner.d, basis.inner.m
    q = phi.hi + m
    sys = block_toeplitz(lambda t: np.kron(theta.coeff(t), np.eye(d)), m + q + 1, q + 1)
    rhs_fun = multiply(phi, theta)
    rhs = np.concatenate([rhs_fun.coeff(k).reshape(-1) for k in range(m + q + 1)])
    x, _ = solve_min_norm(sys, rhs)
    phi1 = MatLaurent(0, x.reshape(q + 1, d, d))
    return phi1, (multiply(theta, phi1) - rhs_fun).norm()


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
def test_commutant_factor_matches_block_toeplitz_least_squares(basis):
    rng = np.random.default_rng(basis.n + 8)
    d = basis.inner.d
    symbols = [random_commuting_symbol(basis, rng), random_symbol(d, 0, 2, rng), basis.inner.theta]
    for phi in symbols:
        phi1, res = commutant_factor(basis, phi)
        want, want_res = _lstsq_commutant(basis, phi)
        count = max(phi1.hi, want.hi) + 1
        _assert_close(_window(phi1, count), _window(want, count))
        assert abs(res - want_res) <= 1e-12 * (1.0 + phi.norm())


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
