"""Loops over Laurent coefficient blocks that became array operations,
pinned to the loops they replaced.

`window` reads a frequency range as one array, and `coords` takes the
window 0..m-1 of an element it reads (`element_oracles.element_coords`),
as m blocks of d and in no other layout;
`model_space.off_space` measures membership as ||L* f|| from Theta's
blocks on window arrays;
`inner_residual` and `gamma_symmetric_residual` use whole coefficient
arrays (the first takes Theta* Theta in BLAS's summation order, pinned to
the einsum product of `product_oracles` within their rounding bound, and
inf wherever the loop gives inf); `build` gathers T_Phi through the lag
index of `laurent.convolve`, pinned to the block-by-block layout of
`product_oracles.block_toeplitz`; and `recover_symbol` checks its pair on
T_{Psi1 + Psi2*} assembled straight from the two coefficient arrays.
Where the arithmetic is the same the results must be equal; `off_space`
takes Theta* f as one BLAS product and sums its squares in other orders
than the loop over Theta* f, so it gets a tolerance of a few ulps.  The
n = 240 space (d = 6, m = 80) joins the spaces the compression and
`off_space` are pinned on.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, VecLaurent, boundary_adjoint, inner_residual, multiply, reversed_adjoint
from mttokit.model_operator import Conjugation, gamma_symmetric_residual
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov, off_space
from mttokit.mtto import build, recover_symbol
from mttokit.numerics import frobenius
from mttokit.randgen import haar_unitary, random_inner, random_projection, random_symbol

from element_oracles import element_coords
from product_oracles import block_toeplitz, einsum_multiply, rounding_bound

INNERS = [fixture(name) for name in FIXTURE_NAMES] + [
    random_inner(d, m, np.random.default_rng(80 + d)) for d, m in ((1, 3), (2, 3), (3, 2))
]
IDS = list(FIXTURE_NAMES) + ["random-1x3", "random-2x3", "random-3x2"]
BASES = [ModelSpaceBasis(inner) for inner in INNERS]


def _cell_240():
    """The seeded Potapov space of eighty rank-3 factors at d = 6: n = 240 on a window of 480."""
    rng = np.random.default_rng(3)
    factors = [random_projection(6, 3, rng) for _ in range(80)]
    return ModelSpaceBasis(make_inner_potapov(factors, left_unitary=haar_unitary(6, rng)))


WITH_240, IDS_240 = BASES + [_cell_240()], IDS + ["n240"]


def _loop_window(f, lo, hi):
    return np.array([f.coeff(k) for k in range(lo, hi + 1)])


def _loop_embed_window(basis, f):
    d, m = basis.inner.d, basis.inner.m
    v = np.zeros(m * d, dtype=np.complex128)
    for k in range(max(f.lo, 0), min(f.hi, m - 1) + 1):
        v[k * d : (k + 1) * d] = f.coeff(k)
    return v


def _loop_membership_residual(basis, f):
    neg = 0.0
    for k in range(f.lo, min(f.hi, -1) + 1):
        neg += float(np.linalg.norm(f.coeff(k)) ** 2)
    g = multiply(boundary_adjoint(basis.inner.theta), f)
    pos = 0.0
    for k in range(max(g.lo, 0), g.hi + 1):
        pos += float(np.linalg.norm(g.coeff(k)) ** 2)
    return float(np.sqrt(neg + pos))


def _loop_inner_residual(theta):
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            prod = einsum_multiply(boundary_adjoint(theta), theta)
        except ValueError:
            return float("inf")
        worst = 0.0
        eye = np.eye(theta.dim)
        for k in range(prod.lo, prod.hi + 1):
            target = eye if k == 0 else 0.0
            worst = max(worst, float(np.linalg.norm(prod.coeff(k) - target)))
    return worst


def _loop_gamma_symmetric_residual(f, gamma):
    u = gamma.u
    worst = 0.0
    for k in range(f.lo, f.hi + 1):
        a = f.coeff(k)
        worst = max(worst, float(np.linalg.norm(a - u @ a.T @ u.conj().T)))
    return worst


def _vectors(d, m, rng):
    """Vector symbols inside the window, straddling both ends, and wholly below or above it."""
    for lo, hi in ((0, m - 1), (-2, m + 1), (1, 1), (-4, -2), (m + 1, m + 3)):
        yield VecLaurent(lo, rng.standard_normal((hi - lo + 1, d)) + 1j * rng.standard_normal((hi - lo + 1, d)))


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_window_and_coords_match_the_coefficient_loops(basis):
    rng = np.random.default_rng(basis.n + 1)
    d, m = basis.inner.d, basis.inner.m
    for f in _vectors(d, m, rng):
        embedded = _loop_embed_window(basis, f)
        assert np.array_equal(f.window(0, m - 1).reshape(-1), embedded)
        assert np.array_equal(element_coords(basis, f), basis.q.conj().T @ embedded)
        ranges = ((f.lo, f.hi), (f.lo - 2, f.hi + 2), (f.hi + 1, f.hi + 3), (f.lo - 3, f.lo - 1), (f.lo - 6, f.lo - 3), (0, 0))
        for lo, hi in ranges:
            assert np.array_equal(f.window(lo, hi), _loop_window(f, lo, hi))


@pytest.mark.parametrize("basis", BASES, ids=IDS)
def test_coords_take_a_window_of_m_blocks_of_d_and_refuse_a_flat_array(basis):
    rng = np.random.default_rng(basis.n + 3)
    m, d = basis.inner.m, basis.inner.d
    w = rng.standard_normal((m, d, 3)) + 1j * rng.standard_normal((m, d, 3))
    qh = basis.q.conj().T
    assert np.array_equal(basis.coords(w), qh @ w.reshape(m * d, 3))
    assert np.array_equal(basis.coords(w[..., 0]), qh @ w[..., 0].reshape(-1))
    for bad in (w[..., 0].reshape(-1), w.reshape(m * d, 3), w[None], w[..., None], np.zeros((m + 1, d))):
        with pytest.raises(ValueError, match=f"expected a window of {m} blocks of {d}"):
            basis.coords(bad)


@pytest.mark.parametrize("basis", WITH_240, ids=IDS_240)
def test_off_space_matches_the_coefficient_loop(basis):
    rng = np.random.default_rng(basis.n + 2)
    d, m = basis.inner.d, basis.inner.m
    members = [VecLaurent(0, (basis.q @ rng.standard_normal(basis.n)).reshape(m, d)) for _ in range(2)]
    inside = [f for f in _vectors(d, m, rng) if f.lo >= 0 and f.hi <= m - 1]  # what the window holds in full
    fs = [*members, *inside]
    got = off_space(basis.inner, np.stack([f.window(0, m - 1).reshape(-1) for f in fs], axis=1))
    for f, residual in zip(fs, got):
        want = _loop_membership_residual(basis, f)
        assert abs(residual - want) <= 4e-16 * (want + f.norm())
    assert got[: len(members)].max() <= 1e-12


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_inner_residual_matches_the_coefficient_loop(inner):
    rng = np.random.default_rng(inner.n + 3)
    theta, d = inner.theta, inner.d
    candidates = [
        theta,
        theta + MatLaurent(1, 1e-3 * rng.standard_normal((1, d, d))),
        random_symbol(d, 0, 2, rng),
        theta * 1e153,  # Theta* Theta is finite, the norm of its blocks overflows
        theta * 1e160,  # a block of Theta* Theta overflows
    ]
    for candidate in candidates:
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = inner_residual(candidate), _loop_inner_residual(candidate)
        if not np.isfinite(want):
            assert got == want
            continue
        # both take the blocks of Theta* Theta, in other summation orders,
        # and their norms, in other orders again
        c = candidate.coeffs
        bound = rounding_bound(reversed_adjoint(c), c)
        block_bound = float(np.linalg.norm(bound.reshape(len(bound), -1), axis=1).max())
        assert abs(got - want) <= block_bound + (d * d + 2) * 2.0**-53 * want


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_gamma_symmetric_residual_matches_the_coefficient_loop(inner):
    rng = np.random.default_rng(inner.n + 4)
    d = inner.d
    gammas = [Conjugation(np.eye(d)), Conjugation(np.eye(d)[::-1])]
    for f in (inner.theta, random_symbol(d, -2, 2, rng)):
        for gamma in gammas:
            assert gamma_symmetric_residual(f, gamma) == _loop_gamma_symmetric_residual(f, gamma)


def _oracle_compression(basis, phi):
    """Q* T Q with T laid out block by block from the blocks of phi at offsets 1 - m .. m - 1."""
    m, q = basis.inner.m, basis.q
    return q.conj().T @ block_toeplitz(phi.window(1 - m, m - 1), m, m) @ q


@pytest.mark.parametrize("basis", WITH_240, ids=IDS_240)
def test_recover_symbol_checks_the_pair_on_the_window_that_build_assembles(basis):
    """`build` and the rebuild of `recover_symbol` are, bit for bit, the
    compression of the block-Toeplitz matrix the oracle lays out."""
    rng = np.random.default_rng(basis.n + 5)
    d, m = basis.inner.d, basis.inner.m
    for lo, hi in ((-2, 2), (0, 3), (-3, 0), (1 - m, m + 1)):
        phi = random_symbol(d, lo, hi, rng)
        a = build(basis, phi).mat
        assert a.tobytes() == _oracle_compression(basis, phi).tobytes()
        rec = recover_symbol(basis, a)
        rebuilt = _oracle_compression(basis, rec.psi1 + boundary_adjoint(rec.psi2))
        assert rec.residual == frobenius(rebuilt - a)

