"""Seeded generators for inner functions, symbols, and conjugations.

Everything takes an explicit numpy Generator so callers control
reproducibility; nothing in here touches global random state.
"""

from __future__ import annotations

import numpy as np

from .errors import ParseError
from .laurent import MatLaurent, multiply
from .model_operator import Conjugation, defect_spaces
from .model_space import InnerFunction, ModelSpaceBasis, make_inner_potapov
from .mtto import _delta, is_mtto
from .numerics import opnorm

LAURENT_SPAN = 2  # the gamma-symmetric symbol has frequencies -LAURENT_SPAN..LAURENT_SPAN
COMMUTING_TERMS, MAX_SHIFT, MAX_POWER = 4, 2, 2  # terms c z^a Theta^p, a <= MAX_SHIFT, p <= MAX_POWER
MIN_DEFECT = 1e-3  # least membership residual of a certified unit-norm non-member
MIN_PURITY = 1e-6  # a drawn inner function's value at the origin has norm at most 1 - MIN_PURITY


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary drawn from the rotation-invariant distribution."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_projection(dim: int, rk: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal projection of the given rank onto a random subspace."""
    if not 0 <= rk <= dim:
        raise ValueError(f"rank must lie in 0..{dim}")
    u = haar_unitary(dim, rng)
    cols = u[:, :rk]
    return cols @ cols.conj().T


def random_inner(d: int, m: int, rng: np.random.Generator) -> InnerFunction:
    """Pure polynomial inner function of C^d with m elementary factors.

    Factor ranks are drawn uniformly from 1..d, except that m = 1 takes P = I,
    the one factor that gives a pure Theta = z U; n lies between m and m*d.
    Up to 200 draws are made for a value at the origin of norm <= 1 - MIN_PURITY.
    """
    if d < 1 or m < 1:
        raise ValueError("need d >= 1 and m >= 1")
    for _ in range(200):
        factors = [np.eye(d)] if m == 1 else [random_projection(d, int(rng.integers(1, d + 1)), rng) for _ in range(m)]
        u = haar_unitary(d, rng)
        value0 = u.copy()
        for p in factors:
            value0 = value0 @ (np.eye(d) - p)
        if opnorm(value0) <= 1.0 - MIN_PURITY:
            return make_inner_potapov(factors, left_unitary=u)
    raise ParseError(f"could not draw a pure inner function with d = {d}, m = {m} in 200 draws")


def random_symbol(d: int, lo: int, hi: int, rng: np.random.Generator, scale: float = 1.0) -> MatLaurent:
    if hi < lo:
        raise ValueError("empty degree window")
    c = rng.standard_normal((hi - lo + 1, d, d)) + 1j * rng.standard_normal((hi - lo + 1, d, d))
    return MatLaurent(lo, scale * c)


def random_element_coords(basis: ModelSpaceBasis, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)


def random_gamma(d: int, rng: np.random.Generator) -> Conjugation:
    """Conjugation x -> U conj(x) with U = V V^T symmetric unitary."""
    v = haar_unitary(d, rng)
    return Conjugation(v @ v.T)


def gamma_real_basis(gamma: Conjugation, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis of fixed vectors of the conjugation.

    Fixed vectors span the whole space over R and pairwise inner
    products between them are real, so Gram-Schmidt with real
    coefficients keeps every iterate fixed and still delivers a complex
    orthonormal basis.
    """
    d = gamma.dim
    vecs: list[np.ndarray] = []
    attempts = 0
    while len(vecs) < d:
        attempts += 1
        if attempts > 100 * d:
            raise RuntimeError("failed to complete a fixed-vector basis")
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = y + gamma.apply(y)
        for b in vecs:
            x = x - b * np.vdot(b, x).real
        nrm = np.linalg.norm(x)
        if nrm > 1e-6:
            vecs.append(x / nrm)
    return np.column_stack(vecs)


def random_gamma_symmetric_triple(d: int, m: int, rng: np.random.Generator):
    """Conjugation, a compatible inner function, and a compatible symbol.

    All three are diagonal in one basis of fixed vectors of the
    conjugation: the inner factors project onto subsets of the basis
    (chosen to cover every direction, which forces purity) and the
    symbol carries an arbitrary scalar Laurent polynomial on each
    direction.  The coefficient matrices A of both functions then
    satisfy A = U A^T U*.
    """
    if m < 1:
        raise ValueError("need at least one factor")
    gamma = random_gamma(d, rng)
    b = gamma_real_basis(gamma, rng)
    factors = []
    covered = np.zeros(d, dtype=bool)
    for j in range(m):
        mask = rng.integers(0, 2, size=d).astype(bool)
        if j == m - 1:
            mask |= ~covered
        if not mask.any():
            mask[int(rng.integers(0, d))] = True
        covered |= mask
        cols = b[:, mask]
        factors.append(cols @ cols.conj().T)
    inner = make_inner_potapov(factors)
    width = 2 * LAURENT_SPAN + 1
    q = rng.standard_normal((width, d)) + 1j * rng.standard_normal((width, d))
    coeffs = np.einsum("ki,ai,bi->kab", q, b, b.conj())
    phi = MatLaurent(-LAURENT_SPAN, coeffs)
    return gamma, inner, phi


def random_commuting_symbol(basis: ModelSpaceBasis, rng: np.random.Generator) -> MatLaurent:
    """Random polynomial in z and the inner function itself; symbols of
    this shape leave Theta H^2 invariant, so the built operator commutes
    with the compressed shift."""
    theta = basis.inner.theta
    d = basis.inner.d
    powers = [MatLaurent.identity(d)]
    for _ in range(MAX_POWER):
        powers.append(multiply(powers[-1], theta))
    phi = MatLaurent.zero(d)
    for _ in range(COMMUTING_TERMS):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        a = int(rng.integers(0, MAX_SHIFT + 1))
        p = int(rng.integers(0, MAX_POWER + 1))
        phi = phi + c * powers[p].shift(a)
    return phi


def random_non_member(basis: ModelSpaceBasis, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm operator outside the symbol class, certified by a
    membership residual of at least MIN_DEFECT.

    The class is the kernel of X -> P (X - S X S*) P, with P the projector
    off the first defect space, so its orthogonal complement is the range
    of the adjoint map, {B - S* B S : B = P W P}.  Candidates take B
    Gaussian on the complement of the defect space (its basis from a
    complete QR); only spaces with a strict complement (n > d) admit one.
    """
    u = defect_spaces(basis).d_basis
    comp = np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]
    k = comp.shape[1]
    if k == 0:
        raise ValueError("every operator on this model space carries a symbol")
    for _ in range(64):
        c = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
        b = comp @ c.reshape(k, k) @ comp.conj().T
        a = _delta(basis, b, starred=True)
        nrm = opnorm(a)
        if nrm < 1e-12:
            continue
        a = a / nrm
        if is_mtto(basis, a).residual >= MIN_DEFECT:
            return a
    raise RuntimeError(f"no candidate in 64 draws reached membership residual {MIN_DEFECT:g}")
