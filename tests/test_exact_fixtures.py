"""FIX3, FIX5 and seeded d = 3 spaces in rational arithmetic.

Theta is multiplied out from the fixtures' Potapov factors with sympy
rationals, and from seeded rational ones: projections V (V* V)^-1 V* onto
the span of small integer vectors, turned by a rational orthogonal U, the
Cayley transform (I - K)(I + K)^-1 of an integer skew matrix K.  Everything
the package measures in floating point is counted again exactly on the
m*d coefficient window:

- the projector P = I - L L* onto the model space (L the lower block
  Toeplitz matrix of Theta_0, ..., Theta_{m-1}) and n = rank P;
- the compressed shift as P Z P (Z the down-shift of the window): its
  rank, and S^m = 0;
- the class dimension as the rank of the map Phi -> P T_Phi P over the
  symbol frequencies -(m - 1)..m - 1, the only ones the window sees;
- n again, as the degree of the polynomial det Theta(z).

Each count is compared with `InnerFunction.n`, `det_degree`, the float S
of `s_theta` and `mtto_dimension`.

The zero-symbol split is checked against exact pairs: for Gaussian-rational
Psi1, Psi2 of degree 2, Phi = Theta Psi1 + (Theta Psi2)*, Theta Psi1 or
(Theta Psi2)* is formed exactly, and `zero_symbol_decompose` must return
Psi1 and Psi2 within 1e-13 ||Phi||, with the absent factor of a one-sided
symbol exactly 0.  The split reads Theta alone, so it runs on an
InnerFunction for which no basis was ever built.
"""

import numpy as np
import pytest

from mttokit import model_space
from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent
from mttokit.model_operator import s_theta
from mttokit.model_space import ModelSpaceBasis, det_degree, make_inner_potapov
from mttokit.mtto import _zero_split, mtto_dimension, zero_symbol_decompose
from mttokit.numerics import frobenius, rank

sympy = pytest.importorskip("sympy")

HALF = sympy.Rational(1, 2)
FACTORS = {  # the Potapov factors of `mttokit.fixtures`, with exact entries
    "FIX3": [sympy.diag(0, 1), sympy.eye(2)],
    "FIX5": [sympy.Matrix([[HALF, HALF], [HALF, HALF]]), sympy.diag(1, 0)],
}
EXPECTED = {"FIX3": (3, 1, 8), "FIX5": (2, 1, 4)}  # n, rank S, class dimension 2nd - d^2
# (seed, factor ranks, turned by U) of seeded d = 3 spaces; each draws a pure Theta
SEEDED = [(2, (1, 2), False), (2, (2, 1), True), (1, (1, 2, 1), True)]


def _theta_blocks(factors, left=None):
    """Theta_0, ..., Theta_m of U (I - P_1 + z P_1) ... (I - P_m + z P_m),
    U = left or the identity."""
    d = factors[0].shape[0]
    blocks = [sympy.eye(d) if left is None else left]
    for p in factors:
        low, high = sympy.eye(d) - p, p
        blocks = [
            (blocks[k] * low if k < len(blocks) else sympy.zeros(d)) + (blocks[k - 1] * high if k else sympy.zeros(d))
            for k in range(len(blocks) + 1)
        ]
    return blocks


def _window_matrix(m, d, block):
    """The md x md matrix whose block (k, j) is block(k - j), or zero when that is None."""
    out = sympy.zeros(m * d, m * d)
    for k in range(m):
        for j in range(m):
            b = block(k - j)
            if b is not None:
                out[k * d : (k + 1) * d, j * d : (j + 1) * d] = b
    return out


def _exact_counts(blocks):
    m, d = len(blocks) - 1, blocks[0].shape[0]
    lower = _window_matrix(m, d, lambda k: blocks[k] if k >= 0 else None)
    p = sympy.eye(m * d) - lower * lower.H
    assert p * p == p and p.H == p
    shift = p * _window_matrix(m, d, lambda k: sympy.eye(d) if k == 1 else None) * p
    assert shift**m == sympy.zeros(m * d, m * d)
    columns = []
    for k in range(1 - m, m):
        for a in range(d):
            for b in range(d):
                unit = sympy.zeros(d, d)
                unit[a, b] = 1
                columns.append(list(p * _window_matrix(m, d, lambda i: unit if i == k else None) * p))
    class_map = sympy.Matrix(columns).T  # column (k, a, b) is P T_Phi P for Phi = E_ab z^k
    return p, shift, (p.rank(), shift.rank(), class_map.rank())


def _seeded_factors(seed, ranks, turned):
    """Rational projections of the given ranks in C^3 onto spans of small
    integer vectors, and a rational orthogonal U (the identity unless turned)."""
    rng = np.random.default_rng(seed)
    factors = []
    for r in ranks:
        v = sympy.zeros(3, r)
        while v.rank() < r:
            v = sympy.Matrix(rng.integers(-3, 4, size=(3, r)).tolist())
        factors.append(v * (v.T * v).inv() * v.T)
    if not turned:
        return factors, sympy.eye(3)
    a, b, c = (int(x) for x in rng.integers(1, 4, size=3))
    skew = sympy.Matrix([[0, a, b], [-a, 0, c], [-b, -c, 0]])
    return factors, (sympy.eye(3) - skew) * (sympy.eye(3) + skew).inv()


def _exact_det_degree(blocks):
    z = sympy.Symbol("z")
    return sympy.Poly(sum((b * z**k for k, b in enumerate(blocks)), sympy.zeros(*blocks[0].shape)).det(), z).degree()


def _assert_float_space_counts(inner, blocks, p, shift, counts):
    """Compare the exact window data of `_exact_counts` with the float space."""
    exact = np.array([np.array(b, dtype=np.complex128) for b in blocks])
    assert exact.shape == inner.blocks.shape and np.abs(exact - inner.blocks).max() <= 1e-15
    n, rank_s, dim = counts
    basis = ModelSpaceBasis(inner)
    assert inner.n == basis.n == n == det_degree(inner.theta) == _exact_det_degree(blocks)
    s, _ = s_theta(basis)
    assert rank(s.mat, scale=1.0) == rank_s
    assert np.abs(np.linalg.matrix_power(s.mat, inner.m)).max() <= 1e-14
    q = basis.q
    assert np.abs(q.conj().T @ np.array(shift, dtype=np.complex128) @ q - s.mat).max() <= 1e-14
    assert np.abs(np.array(p, dtype=np.complex128) @ q - q).max() <= 1e-14
    assert mtto_dimension(basis).dim == dim


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_exact_counts_match_the_float_space(name):
    blocks = _theta_blocks(FACTORS[name])
    exact = _exact_counts(blocks)
    assert exact[2] == EXPECTED[name]
    _assert_float_space_counts(fixture(name), blocks, *exact)


@pytest.mark.parametrize("seed, ranks, turned", SEEDED)
def test_seeded_d3_exact_counts_match_the_float_space(seed, ranks, turned):
    factors, u = _seeded_factors(seed, ranks, turned)
    assert all(p * p == p and p.T == p for p in factors) and u.T * u == sympy.eye(3)
    assert (u == sympy.eye(3)) != turned
    blocks = _theta_blocks(factors, u)
    assert (sympy.eye(3) - blocks[0].T * blocks[0]).is_positive_definite  # pure: ||Theta(0)|| < 1
    exact = _exact_counts(blocks)
    n = sum(ranks)
    assert exact[2][0] == n and exact[2][2] == 2 * n * 3 - 9  # n = sum of the factor ranks, dimension 2nd - d^2
    inner = make_inner_potapov([np.array(p, dtype=float) for p in factors], np.array(u, dtype=float))
    _assert_float_space_counts(inner, blocks, *exact)


# --- the zero-symbol split ----------------------------------------------------

SPLIT_SPACES = sorted(FACTORS) + [f"seeded-{i}" for i in range(len(SEEDED))]
KINDS = ("mixed", "analytic", "coanalytic")


def _exact_space(name):
    """(exact blocks of Theta, float InnerFunction) of a fixture or a seeded d = 3 space."""
    if name in FACTORS:
        return _theta_blocks(FACTORS[name]), fixture(name)
    factors, u = _seeded_factors(*SEEDED[int(name.rsplit("-", 1)[1])])
    return _theta_blocks(factors, u), make_inner_potapov([np.array(p, dtype=float) for p in factors],
                                                         np.array(u, dtype=float))


def _gaussian_symbol(d, rng, degree=2):
    """Blocks 0..degree of an analytic symbol with entries (a + b i) / 4, a, b in -4..4."""
    def entry(i, j):
        a, b = (int(x) for x in rng.integers(-4, 5, size=2))
        return sympy.Rational(a, 4) + sympy.I * sympy.Rational(b, 4)
    return [sympy.Matrix(d, d, entry) for _ in range(degree + 1)]


def _times(theta, psi):
    """Blocks of Theta Psi, frequencies 0..m + deg Psi."""
    d = theta[0].shape[0]
    out = [sympy.zeros(d, d) for _ in range(len(theta) + len(psi) - 1)]
    for i, t in enumerate(theta):
        for j, p in enumerate(psi):
            out[i + j] += t * p
    return out


def _floats(blocks):
    return np.array([np.array(b, dtype=np.complex128) for b in blocks])


def _exact_zero_symbol(theta, kind, seed):
    """(Phi as a float MatLaurent, exact Psi1 and Psi2 as float arrays, 0 for an absent factor)."""
    d = theta[0].shape[0]
    rng = np.random.default_rng(seed)
    psi1, psi2 = _gaussian_symbol(d, rng), _gaussian_symbol(d, rng)
    if kind == "coanalytic":
        psi1 = [sympy.zeros(d, d)]
    if kind == "analytic":
        psi2 = [sympy.zeros(d, d)]
    plus, star = _times(theta, psi1), _times(theta, psi2)
    top = len(star) - 1  # (Theta Psi2)* has frequencies -top..0, block -k the adjoint of block k
    blocks = [star[top - i].H for i in range(top)] + [star[0].H + plus[0]] + plus[1:]
    return MatLaurent(-top, _floats(blocks)), _floats(psi1), _floats(psi2)


def _assert_exact_pair(pair, want, scale, kind):
    for got, ref, absent in zip(pair, want, (kind == "coanalytic", kind == "analytic")):
        if absent:
            assert got.is_zero() and got.lo == 0, kind  # exactly 0, not roundoff
            continue
        assert got.lo >= 0
        assert np.linalg.norm(got.window(0, max(got.hi, len(ref) - 1)) - MatLaurent(0, ref).window(
            0, max(got.hi, len(ref) - 1))) <= 1e-13 * scale, kind


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", SPLIT_SPACES)
def test_zero_symbol_decompose_returns_the_exact_pair(name, kind):
    theta, inner = _exact_space(name)
    assert _floats(theta).shape == inner.blocks.shape and np.abs(_floats(theta) - inner.blocks).max() <= 1e-15
    for seed in range(3):
        phi, psi1, psi2 = _exact_zero_symbol(theta, kind, seed)
        result = zero_symbol_decompose(ModelSpaceBasis(inner), phi)
        scale = frobenius(phi.coeffs)
        assert result.is_zero and result.residual <= 1e-13 * scale
        _assert_exact_pair((result.psi1, result.psi2), (psi1, psi2), scale, kind)


@pytest.mark.parametrize("name", ["FIX5", "seeded-2"])
def test_the_split_runs_on_theta_alone(name, monkeypatch):
    theta, inner = _exact_space(name)  # a new InnerFunction: no basis was built on it

    def refuse(*args, **kwargs):
        raise AssertionError("the split built a basis")

    monkeypatch.setattr(model_space.ModelSpaceBasis, "__init__", refuse)
    monkeypatch.setattr(model_space, "window_projector", refuse)
    splits = {}
    for kind in KINDS:
        phi, psi1, psi2 = _exact_zero_symbol(theta, kind, 7)
        splits[kind] = phi, _zero_split(inner, phi)
        _assert_exact_pair(splits[kind][1][0], (psi1, psi2), frobenius(phi.coeffs), kind)
    monkeypatch.undo()
    basis = ModelSpaceBasis(inner)
    for kind, (phi, ((p1, p2), err)) in splits.items():  # the decomposition is that split, bit for bit
        result = zero_symbol_decompose(basis, phi)
        assert result.residual == frobenius(err)
        for got, want in ((result.psi1, p1), (result.psi2, p2)):
            assert got.lo == want.lo and np.array_equal(got.coeffs, want.coeffs)
