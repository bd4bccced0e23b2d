"""FIX1-FIX5 and seeded d = 3 spaces in rational arithmetic.

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

The paper's two results and the compression they rest on are checked in
window coordinates, where they do not depend on the basis Q:

- `build`: Q A_Phi Q* = P T_Phi P for a Gaussian-rational Phi of degrees
  -2..2, within 1e-13 ||Phi||;
- `is_mtto`: for A = Q* M Q with a Gaussian-rational window matrix M, the
  float residual squared is the exact ||(P - Pi) Delta (P - Pi)||_F^2 to
  1e-12 relative, where Delta = P M P - (P Z P)(P M P)(P Z P)* and Pi is
  the projector onto ran(P E0), E0 the first block column: the first
  defect space, spanned by the kernel at the origin;
- `recover_symbol`: for A = `build(basis, Phi)`, the returned pair is the
  least-Frobenius-norm (Psi1, Psi2) with window columns in ran P and
  P T_{Psi1 + Psi2*} P = P T_Phi P, solved exactly over the d^2 gauge,
  within 1e-12 ||Phi||;
- `is_mtto`'s `distance_bounds`, on rotated monomial spaces
  Theta = W diag(z^m_1, ..., z^m_d) W* with W a rational orthogonal
  matrix and m*d <= 9: the exact Frobenius distance from P M P to the span
  of the P T_Phi P is held by the exact bracket (R / 2, m R), R the exact
  residual, and each float bound is its exact end to 1e-12 in the square.

Every P here is real (so is every Theta), so each side is taken
separately on the real and the imaginary part of a symbol or of M.

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
from mttokit.mtto import _zero_split, build, is_mtto, mtto_dimension, recover_symbol, zero_symbol_decompose
from mttokit.numerics import frobenius

from dimension_oracles import anchored_rank
from monomial_oracles import exact_distance, monomial_inner

sympy = pytest.importorskip("sympy")

HALF = sympy.Rational(1, 2)
FACTORS = {  # the Potapov factors of `mttokit.fixtures`, with exact entries
    "FIX1": [sympy.eye(1)],
    "FIX2": [sympy.eye(1), sympy.eye(1)],
    "FIX3": [sympy.diag(0, 1), sympy.eye(2)],
    "FIX4": [sympy.eye(2)],
    "FIX5": [sympy.Matrix([[HALF, HALF], [HALF, HALF]]), sympy.diag(1, 0)],
}
# n, rank S, class dimension 2nd - d^2
EXPECTED = {"FIX1": (1, 0, 1), "FIX2": (2, 1, 3), "FIX3": (3, 1, 8), "FIX4": (2, 0, 4), "FIX5": (2, 1, 4)}
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


def _exact_window(blocks):
    """(P = I - L L*, the compressed shift P Z P) on the window of Theta."""
    m, d = len(blocks) - 1, blocks[0].shape[0]
    lower = _window_matrix(m, d, lambda k: blocks[k] if k >= 0 else None)
    p = sympy.eye(m * d) - lower * lower.H
    assert p * p == p and p.H == p
    return p, p * _window_matrix(m, d, lambda k: sympy.eye(d) if k == 1 else None) * p


def _class_map(p, m, d):
    """The matrix whose column (k, a, b) is P T_Phi P, raveled, for Phi = E_ab z^k
    at the frequencies 1 - m..m - 1 that the window sees: its span is the class."""
    columns = []
    for k in range(1 - m, m):
        for a in range(d):
            for b in range(d):
                unit = sympy.zeros(d, d)
                unit[a, b] = 1
                columns.append(list(p * _window_matrix(m, d, lambda i: unit if i == k else None) * p))
    return sympy.Matrix(columns).T


def _exact_counts(blocks):
    m, d = len(blocks) - 1, blocks[0].shape[0]
    p, shift = _exact_window(blocks)
    assert shift**m == sympy.zeros(m * d, m * d)
    return p, shift, (p.rank(), shift.rank(), _class_map(p, m, d).rank())


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
    assert anchored_rank(s) == rank_s
    assert np.abs(np.linalg.matrix_power(s, inner.m)).max() <= 1e-14
    q = basis.q
    assert np.abs(q.conj().T @ np.array(shift, dtype=np.complex128) @ q - s).max() <= 1e-14
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

EXACT_SPACES = sorted(FACTORS) + [f"seeded-{i}" for i in range(len(SEEDED))]
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
            assert not got.coeffs.any() and got.lo == 0, kind  # exactly 0, not roundoff
            continue
        assert got.lo >= 0
        assert np.linalg.norm(got.window(0, max(got.hi, len(ref) - 1)) - MatLaurent(0, ref).window(
            0, max(got.hi, len(ref) - 1))) <= 1e-13 * scale, kind


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", EXACT_SPACES)
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
        splits[kind] = phi, _zero_split(inner, phi), zero_symbol_decompose(inner, phi)  # certified on Theta
        _assert_exact_pair(splits[kind][1][0], (psi1, psi2), frobenius(phi.coeffs), kind)
    monkeypatch.undo()
    basis = ModelSpaceBasis(inner)
    for kind, (phi, ((p1, p2), _, err), on_theta) in splits.items():  # the decomposition is that split, bit for bit
        result = zero_symbol_decompose(basis, phi)
        assert result.residual == frobenius(err) and result.is_zero and on_theta.is_zero
        assert (result.operator_norm, result.residual, result.tol) == (on_theta.operator_norm, on_theta.residual,
                                                                      on_theta.tol)
        for got, want in ((result.psi1, p1), (result.psi2, p2), (on_theta.psi1, p1), (on_theta.psi2, p2)):
            assert got.lo == want.lo and np.array_equal(got.coeffs, want.coeffs)


# --- compression and membership in window coordinates ------------------------

def _gaussian_parts(rows, cols, rng):
    """Real and imaginary parts, as exact rationals, of a rows x cols matrix
    with entries (a + b i) / 4, a, b in -4..4."""
    return [sympy.Matrix(part.tolist()) / 4 for part in rng.integers(-4, 5, size=(2, rows, cols))]


def _real_floats(mat):
    return np.array(mat.tolist(), dtype=float)


def _exact_real_window(name):
    """(exact blocks of Theta, float InnerFunction, P, P Z P), P real."""
    theta, inner = _exact_space(name)
    p, shift = _exact_window(theta)
    assert all(x.is_real for x in p)
    return theta, inner, p, shift


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_build_is_the_exact_compressed_toeplitz_matrix(name):
    theta, inner, p, _ = _exact_real_window(name)
    m, d = inner.m, inner.d
    basis = ModelSpaceBasis(inner)
    q = basis.q
    rng = np.random.default_rng(inner.n)
    for _ in range(3):
        parts = _gaussian_parts(5 * d, d, rng)  # Phi_-2, ..., Phi_2 stacked
        exact = 0
        for part, unit in zip(parts, (1, 1j)):
            toeplitz = _window_matrix(m, d, lambda k: part[(k + 2) * d : (k + 3) * d, :] if abs(k) <= 2 else None)
            exact = exact + unit * _real_floats(p * toeplitz * p)
        phi = MatLaurent(-2, (_real_floats(parts[0]) + 1j * _real_floats(parts[1])).reshape(5, d, d))
        got = q @ build(basis, phi).mat @ q.conj().T
        assert frobenius(got - exact) <= 1e-13 * phi.norm()


def _exact_off_defect_square(p, shift, d, mat):
    """||(P - Pi) Delta (P - Pi)||_F^2, Delta = P M P - (P Z P)(P M P)(P Z P)*,
    Pi the projector onto ran(P E0), for a real rational M."""
    frame = p[:, :d]  # P E0
    off = p - frame * (frame.T * frame).inv() * frame.T
    pmp = p * mat * p
    residual = off * (pmp - shift * pmp * shift.T) * off
    return sum(x**2 for x in residual)


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_is_mtto_residual_is_the_exact_off_defect_norm(name):
    _, inner, p, shift = _exact_real_window(name)
    md, d = inner.m * inner.d, inner.d
    basis = ModelSpaceBasis(inner)
    q = basis.q
    rng = np.random.default_rng(inner.n + 1)
    for _ in range(3):
        parts = _gaussian_parts(md, md, rng)
        exact = sum(_exact_off_defect_square(p, shift, d, part) for part in parts)
        assert (exact == 0) == (inner.n == d)  # P = Pi exactly when the defect space is the whole space
        a = q.conj().T @ (_real_floats(parts[0]) + 1j * _real_floats(parts[1])) @ q
        residual = is_mtto(basis, a).residual
        assert abs(residual**2 - float(exact)) <= 1e-12 * float(exact)


# --- symbol recovery -----------------------------------------------------------

def _exact_least_norm_pairs(theta, p, parts_list):
    """For each (real part, imaginary part) of a symbol Phi of degrees -2..2,
    the least-Frobenius-norm pair (Psi1, Psi2), as md x d window column
    matrices in ran P, with P T_{Psi1 + Psi2*} P = P T_Phi P.  The columns
    are E a and E c for a rational basis E of ran P, and P X P = 0 exactly
    when E^T X E = 0.  The condition is linear and real in (Psi1, conj Psi2),
    so each part is solved alone; its solutions are one of them plus the
    gauge, the null space of the map, and the least norm ||Psi1||^2 +
    ||Psi2||^2 in the metric E^T E is taken over that gauge."""
    m, d = len(theta) - 1, theta[0].shape[0]
    basis = sympy.Matrix.hstack(*p.columnspace())
    n = basis.shape[1]

    def unit(i, j):
        """Window blocks of the md x d matrix with column i of E as its column j, 0 elsewhere."""
        out = sympy.zeros(m * d, d)
        out[:, j] = basis[:, i]
        return [out[k * d : (k + 1) * d, :] for k in range(m)]

    units = [unit(i, j) for i in range(n) for j in range(d)]
    columns = [_window_matrix(m, d, lambda k, b=b: b[k] if k >= 0 else None) for b in units]  # T_Psi1
    columns += [_window_matrix(m, d, lambda k, b=b: b[-k].T if k <= 0 else None) for b in units]  # T_(Psi2*)
    system = sympy.Matrix.hstack(*[(basis.T * t * basis).reshape(n * n, 1) for t in columns])
    gauge = sympy.Matrix.hstack(*system.nullspace())
    assert gauge.shape[1] == d * d  # the zero-symbol gauge, and nothing more
    gram = basis.T * basis
    half = sympy.Matrix(n * d, n * d, lambda r, c: gram[r // d, c // d] if r % d == c % d else 0)
    metric = sympy.diag(half, half)  # ||E a||^2 + ||E c||^2 on the unknowns a, c in the order of `columns`
    pairs = []
    for parts in parts_list:
        solved = []
        for part in parts:
            toeplitz = _window_matrix(m, d, lambda k: part[(k + 2) * d : (k + 3) * d, :] if abs(k) <= 2 else None)
            rhs = (basis.T * toeplitz * basis).reshape(n * n, 1)
            z, params = system.gauss_jordan_solve(rhs)
            z = z.subs({t: 0 for t in params})
            z -= gauge * (gauge.T * metric * gauge).inv() * (gauge.T * metric * z)
            a, c = z[: n * d, :].reshape(n, d), z[n * d :, :].reshape(n, d)
            solved.append((_real_floats(basis * a), _real_floats(basis * c)))
        (a_re, c_re), (a_im, c_im) = solved
        pairs.append((a_re + 1j * a_im, c_re - 1j * c_im))  # Psi2 = conj(c_re + i c_im)
    return pairs


@pytest.mark.parametrize("name", EXACT_SPACES)
def test_recover_symbol_returns_the_exact_least_norm_pair(name):
    theta, inner, p, _ = _exact_real_window(name)
    m, d = inner.m, inner.d
    basis = ModelSpaceBasis(inner)
    rng = np.random.default_rng(inner.n + 2)
    parts_list = [_gaussian_parts(5 * d, d, rng) for _ in range(2)]  # Phi_-2, ..., Phi_2 stacked
    for parts, (psi1, psi2) in zip(parts_list, _exact_least_norm_pairs(theta, p, parts_list)):
        phi = MatLaurent(-2, (_real_floats(parts[0]) + 1j * _real_floats(parts[1])).reshape(5, d, d))
        rec = recover_symbol(basis, build(basis, phi))
        for got, want in ((rec.psi1, psi1), (rec.psi2, psi2)):
            assert got.lo >= 0 and got.hi < m
            assert frobenius(got.window(0, m - 1) - want.reshape(m, d, d)) <= 1e-12 * phi.norm()


# --- the distance bracket on rotated monomial spaces ---------------------------

# the exponents m_i of Theta = W diag(z^m_1, ..., z^m_d) W*, m * d <= 9, and a seed for W
MONOMIALS = [((2,), 0), ((5,), 0), ((1, 2), 1), ((2, 2), 2), ((1, 4), 3), ((2, 3), 4), ((1, 1, 2), 5),
             ((1, 2, 3), 6)]


def _rational_orthogonal(d, seed):
    """The Cayley transform (I - K)(I + K)^-1 of an integer skew matrix K."""
    rng = np.random.default_rng(seed)
    skew = sympy.zeros(d, d)
    for i in range(d):
        for j in range(i + 1, d):
            skew[i, j] = int(rng.integers(1, 4))
            skew[j, i] = -skew[i, j]
    return (sympy.eye(d) - skew) * (sympy.eye(d) + skew).inv()


def _exact_distance_square(p, class_span, mat):
    """||X - Pi X||_F^2 for X = P M P, a real rational M, and Pi the orthogonal
    projection onto the span of the columns of `class_span` (raveled matrices)."""
    x = (p * mat * p).reshape(mat.rows * mat.cols, 1)
    moments = class_span.T * x
    return (x.T * x)[0] - (moments.T * (class_span.T * class_span).solve(moments))[0]


@pytest.mark.parametrize("ms, seed", MONOMIALS, ids=["-".join(map(str, ms)) for ms, _ in MONOMIALS])
def test_distance_bounds_are_the_exact_bracket_of_the_exact_distance(ms, seed):
    """In window coordinates, where Q does not enter, the class is the span of
    the P T_Phi P over the unit symbols, and A = Q* M Q is P M P.  Exactly,
    D^2 = dist_F(P M P, class)^2 and R^2 = ||(P - Pi) Delta (P - Pi)||_F^2 satisfy
    R^2 / 4 <= D^2 <= m^2 R^2; the float bounds of `is_mtto` are R / 2 and m R to
    1e-12 in their squares, so a bound moved by 1 +- 1e-12 fails here, and D
    is `monomial_oracles.exact_distance`, the averaging of U* A U along diagonals."""
    d, m = len(ms), max(ms)
    w = _rational_orthogonal(d, seed)
    theta = [w * sympy.diag(*[int(mi == k) for mi in ms]) * w.T for k in range(m + 1)]
    w_float = _real_floats(w)
    inner = monomial_inner(w_float, ms)
    assert np.abs(_floats(theta) - inner.blocks).max() <= 1e-15
    p, shift = _exact_window(theta)
    class_span = sympy.Matrix.hstack(*_class_map(p, m, d).columnspace())
    assert class_span.shape[1] == 2 * sum(ms) * d - d * d  # the class dimension 2nd - d^2
    basis = ModelSpaceBasis(inner)
    q = basis.q
    rng = np.random.default_rng(seed)
    for _ in range(2):
        parts = _gaussian_parts(m * d, m * d, rng)
        dist2 = sum(_exact_distance_square(p, class_span, part) for part in parts)
        res2 = sum(_exact_off_defect_square(p, shift, d, part) for part in parts)
        assert res2 / 4 <= dist2 <= m**2 * res2  # the bracket holds the distance, in exact arithmetic
        a = q.conj().T @ (_real_floats(parts[0]) + 1j * _real_floats(parts[1])) @ q
        lo, hi = is_mtto(basis, a).distance_bounds
        for end, want in ((lo, res2 / 4), (hi, m**2 * res2)):
            assert abs(end**2 - float(want)) <= 1e-12 * float(want)
        dist = float(sympy.sqrt(dist2).evalf(20))
        assert lo <= dist <= hi
        assert abs(exact_distance(basis, w_float, ms, a) - dist) <= 1e-12 * dist
