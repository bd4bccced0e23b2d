import itertools
import tracemalloc

import numpy as np
import pytest

from mttokit.errors import (
    IdentityCheckError,
    NotInnerError,
    NotProjectionError,
    NotPureError,
    NotUnitaryError,
)
from mttokit.fixtures import FIXTURE_FACTORS, fixture
from mttokit.laurent import MatLaurent, VecLaurent, evaluate, inner_residual, multiply
from mttokit.model_space import (
    InnerFunction,
    ModelSpaceBasis,
    det_degree,
    kernel,
    make_inner_potapov,
    potapov_product,
    tilde_kernel,
)
from mttokit.numerics import DET_TOL, INNER_TOL, TRACE_TOL
from mttokit.randgen import haar_unitary, random_inner, random_projection

from basis_oracles import membership_residual
from dimension_oracles import DET_CUT, SymbolSpaceBasis, det_degree_by_fft, hs_inner, symbol_space_dim_bruteforce
from element_oracles import kernel_element, tilde_kernel_element
from product_oracles import tilde
from suite_oracles import element, from_coords, l2_inner, project, tau_adjoint_apply, tau_apply

EXPECTED_SHAPE = {
    "FIX1": (1, 1, 1),
    "FIX2": (1, 2, 2),
    "FIX3": (2, 2, 3),
    "FIX4": (2, 1, 2),
    "FIX5": (2, 2, 2),
}


def _random_element(basis, rng):
    c = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
    return from_coords(basis, c)


def test_fixture_dimensions():
    for name, (d, m, n) in EXPECTED_SHAPE.items():
        inner = fixture(name)
        assert (inner.d, inner.m, inner.n) == (d, m, n)


def test_fixture_lookup_rejects_unknown_names():
    with pytest.raises(KeyError):
        fixture("FIX9")


def test_potapov_product_reproduces_diagonal_monomials():
    inner = make_inner_potapov([np.diag([0.0, 1.0]), np.eye(2)])
    th = inner.theta
    assert (th.lo, th.hi) == (1, 2)
    np.testing.assert_allclose(th.coeff(1), np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(th.coeff(2), np.diag([0.0, 1.0]), atol=1e-14)


def test_potapov_validation_errors():
    with pytest.raises(NotProjectionError):
        make_inner_potapov([np.array([[0.5, 0.0], [0.0, 0.0]])])
    with pytest.raises(NotUnitaryError):
        make_inner_potapov([np.eye(2)], left_unitary=2 * np.eye(2))
    with pytest.raises(NotPureError):
        make_inner_potapov([np.diag([1.0, 0.0])])  # diag(z, 1) peaks at norm 1


def test_inner_function_rejects_non_inner_coefficients():
    with pytest.raises(NotInnerError):
        InnerFunction(MatLaurent(1, 0.5 * np.eye(2)[np.newaxis]))
    with pytest.raises(NotInnerError):
        InnerFunction(MatLaurent(-1, np.stack([np.eye(2)])))


def _det_degree_by_permutations(theta, cut=DET_CUT):
    """Oracle: expand det Theta over all d! permutations with scalar
    convolutions, and read the degree off with det_degree_by_fft's cut rule."""
    d = theta.dim
    total = np.zeros(theta.hi * d + 1, dtype=np.complex128)
    entry = np.zeros(theta.hi + 1, dtype=np.complex128)
    for perm in itertools.permutations(range(d)):
        inversions = sum(perm[i] > perm[j] for i in range(d) for j in range(i + 1, d))
        term = np.array([(-1.0) ** inversions + 0.0j])
        for i in range(d):
            for k in range(theta.hi + 1):
                entry[k] = theta.coeff(k)[i, perm[i]]
            term = np.convolve(term, entry)
        total[: term.size] += term
    mags = np.abs(total)
    big = np.flatnonzero(mags > cut * max(1.0, mags.max()))
    return int(big[-1]) if big.size else 0


def test_det_degree_matches_model_dimension():
    for name in EXPECTED_SHAPE:
        inner = fixture(name)
        assert det_degree(inner.theta) == inner.n == _det_degree_by_permutations(inner.theta)
        assert det_degree_by_fft(inner.theta) == inner.n


def test_det_degree_matches_permutation_expansion_on_random_inners():
    rng = np.random.default_rng(60)
    for d in range(1, 6):
        for m in (1, 2, 3):
            inner = random_inner(d, m, rng)
            assert det_degree(inner.theta) == _det_degree_by_permutations(inner.theta) == inner.n
            assert det_degree_by_fft(inner.theta) == inner.n


def test_det_degree_matches_permutation_expansion_on_non_inner_input():
    # pins the interpolation oracle, which reads a degree off any analytic
    # input (det_degree refuses these); not inner, some shifted off
    # frequency 0, some with a rank-deficient top coefficient so that the
    # degree falls below hi * d
    rng = np.random.default_rng(61)
    degrees = set()
    for d in range(1, 6):
        for lo, hi in ((0, 1), (0, 2), (1, 3)):
            c = rng.standard_normal((hi - lo + 1, d, d)) + 1j * rng.standard_normal((hi - lo + 1, d, d))
            for top_rank in sorted({1, d}):
                low = c.copy()
                low[-1] = c[-1][:, :top_rank] @ c[-1][:top_rank, :]
                theta = MatLaurent(lo, low)
                deg = det_degree_by_fft(theta)
                assert deg == _det_degree_by_permutations(theta)
                degrees.add(deg == hi * d)
    assert degrees == {True, False}


@pytest.mark.parametrize("d, ranks", [(10, [6, 7, 5]), (16, [9, 12, 8, 3])])
def test_det_degree_is_the_factor_rank_sum_at_large_d(d, ranks):
    rng = np.random.default_rng(d)
    factors = [random_projection(d, r, rng) for r in ranks]
    inner = make_inner_potapov(factors, left_unitary=haar_unitary(d, rng))
    assert det_degree(inner.theta) == det_degree_by_fft(inner.theta) == inner.n == sum(ranks)


@pytest.mark.parametrize("exponents", [(1000,), (1, 1000), (1, 2, 3, 500)])
def test_det_degree_reads_monomials_of_high_degree(exponents):
    # U diag(z^e_1, ..., z^e_d) V: det Theta(r) = c r^n with n = sum e_i and
    # m = max e_i; Theta(r) has condition number up to r^-m, so r must
    # approach 1 as m grows
    d, m = len(exponents), max(exponents)
    rng = np.random.default_rng(m + d)
    u, v = (haar_unitary(d, rng), haar_unitary(d, rng)) if d > 1 else (np.eye(1), np.eye(1))
    coeffs = np.zeros((m + 1, d, d), dtype=np.complex128)
    for i, e in enumerate(exponents):
        coeffs[e] += np.outer(u[:, i], v[i])
    inner = InnerFunction(MatLaurent(0, coeffs))
    assert det_degree(inner.theta) == det_degree_by_fft(inner.theta) == inner.n == sum(exponents)


def test_det_degree_of_a_constant_unitary_is_zero():
    theta = MatLaurent.constant(haar_unitary(3, np.random.default_rng(5)))
    assert det_degree(theta) == det_degree_by_fft(theta) == 0


@pytest.mark.parametrize("low", [0.5, 0.0])
def test_det_degree_refuses_a_reading_off_the_integers(low):
    # diag(z, 1/2) reads 1 + log 2 ~ 1.69; diag(z, 0) is singular inside
    # the disk and reads inf
    theta = MatLaurent(0, np.array([np.diag([0.0, low]), np.diag([1.0, 0.0])], dtype=np.complex128))
    with pytest.raises(IdentityCheckError, match="det degree reading") as err:
        det_degree(theta)
    if low:
        assert f"{1 + np.log(2):.6f}" in str(err.value)


def test_det_degree_memory_does_not_grow_with_the_window():
    # one d x d value and its LU factors: 0.6 MiB at d = 100, against 31 MiB
    # for the (m*d + 1) d x d values of the interpolation route
    rng = np.random.default_rng(100)
    factors = [random_projection(100, r, rng) for r in (60, 70)]
    inner = make_inner_potapov(factors, left_unitary=haar_unitary(100, rng))
    tracemalloc.start()
    try:
        assert det_degree(inner.theta) == inner.n == 130
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_inner_function_accepts_theta_perturbed_along_the_reading():
    # a seeded n = 240 Potapov product (d = 6, eighty rank-3 factors), moved
    # along the gradient of the reading x = -m log|det Theta(r)| until its
    # unitarity residual is 0.9 INNER_TOL: x then misses n by far more than
    # the trace's m*d*TRACE_TOL, yet by far less than DET_TOL
    d, m = 6, 80
    rng = np.random.default_rng(1)
    u = haar_unitary(d, rng)
    theta, _ = potapov_product([random_projection(d, 3, rng) for _ in range(m)], u)
    r = np.exp(-1.0 / m)
    grad = -m * r ** np.arange(m + 1)[:, None, None] * np.linalg.inv(evaluate(theta, r)).conj().T
    grad /= np.linalg.norm(grad)
    step = 1e-9 * 0.9 * INNER_TOL / inner_residual(MatLaurent(0, theta.coeffs + 1e-9 * grad))
    moved = MatLaurent(0, theta.coeffs + step * grad)
    assert 0.85 * INNER_TOL < inner_residual(moved) < 0.95 * INNER_TOL
    miss = abs(-m * np.linalg.slogdet(evaluate(moved, r))[1] - 240)
    assert m * d * TRACE_TOL < miss < 1e-3 * DET_TOL
    assert InnerFunction(moved).n == det_degree(moved) == 240


def test_wrong_factor_rank_sum_is_refused():
    theta, (u, ps, ranks) = potapov_product(FIXTURE_FACTORS["FIX5"])
    assert ranks.sum() == fixture("FIX5").n
    with pytest.raises(IdentityCheckError, match="factor rank sum 3"):
        InnerFunction(theta, (u, ps, ranks + [1, 0]))


def test_fix3_basis_is_the_expected_monomial_family():
    basis = ModelSpaceBasis(fixture("FIX3"))  # ran P_1 = span e_2, then diag(1, z) e_1 and diag(1, z) e_2
    want = [
        VecLaurent(0, [[0.0, 1.0]]),
        VecLaurent(0, [[1.0, 0.0]]),
        VecLaurent(1, [[0.0, 1.0]]),
    ]
    for j, w in enumerate(want):
        got = element(basis, j)
        assert (got - w).norm() <= 1e-12


def test_basis_is_orthonormal_and_deterministic():
    for name in EXPECTED_SHAPE:
        inner = fixture(name)
        b1 = ModelSpaceBasis(inner)
        b2 = ModelSpaceBasis(fixture(name))
        gram = b1.q.conj().T @ b1.q
        np.testing.assert_allclose(gram, np.eye(inner.n), atol=1e-12)
        np.testing.assert_array_equal(b1.q, b2.q)
        assert b1.basis_id == b2.basis_id


def test_basis_membership_residuals():
    basis = ModelSpaceBasis(fixture("FIX5"))
    for j in range(basis.n):
        assert membership_residual(basis, element(basis, j)) <= 1e-12
    # z^m x lands inside Theta H^2, far from the model space
    outside = VecLaurent(basis.inner.m, [[1.0, 0.0]])
    assert membership_residual(basis, outside) > 0.5


def test_projection_is_idempotent_and_kills_invariant_part():
    rng = np.random.default_rng(10)
    for name in ("FIX2", "FIX3", "FIX5"):
        inner = fixture(name)
        basis = ModelSpaceBasis(inner)
        m, d = inner.m, inner.d
        for _ in range(10):
            c = rng.standard_normal((4 * m + 1, d)) + 1j * rng.standard_normal((4 * m + 1, d))
            g = VecLaurent(-m, c)
            p1 = project(basis, g)
            p2 = project(basis, p1)
            assert (p1 - p2).norm() <= 1e-12 * (1 + p1.norm())
            assert membership_residual(basis, p1) <= 1e-10 * (1 + p1.norm())
        # anything of the form Theta h projects to zero
        h = VecLaurent(0, rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d)))
        th_h = multiply(inner.theta, h)
        assert project(basis, th_h).norm() <= 1e-10 * (1 + th_h.norm())


def test_projection_matches_inner_product_expansion():
    rng = np.random.default_rng(11)
    basis = ModelSpaceBasis(fixture("FIX3"))
    g = VecLaurent(-2, rng.standard_normal((7, 2)) + 1j * rng.standard_normal((7, 2)))
    expansion = VecLaurent.zero(2)
    for j in range(basis.n):
        e = element(basis, j)
        expansion = expansion + complex(l2_inner(g, e)) * e
    assert (project(basis, g) - expansion).norm() <= 1e-12


def test_kernel_for_scalar_double_shift_is_short_geometric_series():
    basis = ModelSpaceBasis(fixture("FIX2"))
    lam = 0.4 - 0.3j
    k = kernel_element(basis.inner, lam, [1.0])
    want = VecLaurent(0, np.array([[1.0], [np.conj(lam)]]))
    assert (k - want).norm() <= 1e-12


def test_kernel_reproduces_point_evaluations():
    rng = np.random.default_rng(12)
    for name in ("FIX2", "FIX3", "FIX4", "FIX5"):
        inner = fixture(name)
        basis = ModelSpaceBasis(inner)
        for _ in range(8):
            lam = 0.8 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
            x = rng.standard_normal(inner.d) + 1j * rng.standard_normal(inner.d)
            window, tail = kernel(inner, lam, x)
            k = VecLaurent(0, window)
            assert tail <= 1e-9
            f = _random_element(basis, rng)
            lhs = l2_inner(f, k)
            rhs = np.vdot(x, np.asarray(
                sum(f.coeff(kk) * lam ** kk for kk in range(f.lo, f.hi + 1))
            ))
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))


def test_kernel_rejects_points_outside_disk():
    with pytest.raises(ValueError):
        kernel(fixture("FIX2"), 1.2, [1.0])


def test_tilde_kernel_fix3_at_origin():
    inner = fixture("FIX3")
    k1 = tilde_kernel_element(inner, 0.0, [1.0, 0.0])
    k2 = tilde_kernel_element(inner, 0.0, [0.0, 1.0])
    assert (k1 - VecLaurent(0, [[1.0, 0.0]])).norm() <= 1e-12
    assert (k2 - VecLaurent(1, [[0.0, 1.0]])).norm() <= 1e-12


def test_tilde_kernel_division_is_exact():
    rng = np.random.default_rng(13)
    basis = ModelSpaceBasis(fixture("FIX5"))
    for _ in range(10):
        lam = 0.7 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / 2
        y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        window, rem = tilde_kernel(basis.inner, lam, y)
        k = VecLaurent(0, window)
        assert rem <= 1e-10
        # multiplying back by (z - lam) recovers Theta y minus its value
        shifted = VecLaurent(k.lo + 1, k.coeffs) - lam * k
        target = multiply(basis.inner.theta, VecLaurent.constant(y)) - VecLaurent.constant(
            evaluate(basis.inner.theta, lam) @ y
        )
        assert (shifted - target).norm() <= 1e-10


def test_tau_is_unitary_onto_the_partner_model_space():
    rng = np.random.default_rng(14)
    for name in ("FIX2", "FIX3", "FIX5"):
        inner = fixture(name)
        basis = ModelSpaceBasis(inner)
        partner = ModelSpaceBasis(InnerFunction(tilde(inner.theta)))
        for _ in range(6):
            f = _random_element(basis, rng)
            tf = tau_apply(inner, f)
            assert abs(tf.norm() - f.norm()) <= 1e-12 * (1 + f.norm())
            assert membership_residual(partner, tf) <= 1e-10 * (1 + f.norm())
            back = tau_adjoint_apply(inner, tf)
            assert (back - f).norm() <= 1e-12 * (1 + f.norm())


def test_tau_intertwines_the_projections():
    rng = np.random.default_rng(15)
    inner = fixture("FIX5")
    basis = ModelSpaceBasis(inner)
    partner = ModelSpaceBasis(InnerFunction(tilde(inner.theta)))
    m, d = inner.m, inner.d
    for _ in range(8):
        c = rng.standard_normal((3 * m + 1, d)) + 1j * rng.standard_normal((3 * m + 1, d))
        g = VecLaurent(-m, c)
        lhs = tau_apply(inner, project(basis, g))
        rhs = project(partner, tau_apply(inner, g))
        assert (lhs - rhs).norm() <= 1e-10 * (1 + g.norm())


def test_symbol_space_basis_is_orthonormal_with_columns_in_model_space():
    for name in ("FIX3", "FIX5"):
        inner = fixture(name)
        basis = ModelSpaceBasis(inner)
        sym = SymbolSpaceBasis(basis)
        assert len(sym) == inner.n * inner.d
        for a, ea in enumerate(sym.elements):
            for b, eb in enumerate(sym.elements):
                want = 1.0 if a == b else 0.0
                assert abs(hs_inner(ea, eb) - want) <= 1e-12
        for el in sym.elements:
            for col in range(inner.d):
                colfun = VecLaurent(el.lo, el.coeffs[:, :, col])
                assert membership_residual(basis, colfun) <= 1e-10


def test_symbol_space_dimension_brute_force():
    # the product-dimension reading n**d overcounts as soon as d > 1 and
    # n != d; the column-wise count n*d is what the constraint map yields
    for name, (d, _, n) in EXPECTED_SHAPE.items():
        inner = fixture(name)
        basis = ModelSpaceBasis(inner)
        dim = symbol_space_dim_bruteforce(basis)
        assert dim == n * d
    basis3 = ModelSpaceBasis(fixture("FIX3"))
    assert symbol_space_dim_bruteforce(basis3) == 6 != 3 ** 2


def test_inner_tilde_of_diagonal_real_theta_is_itself():
    inner = fixture("FIX3")
    assert (tilde(inner.theta) - inner.theta).norm() == 0.0
    inner5 = fixture("FIX5")
    diff = (tilde(inner5.theta) - inner5.theta).norm()
    assert diff > 0.1  # the two elementary factors do not commute
