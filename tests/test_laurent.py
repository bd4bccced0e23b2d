import numpy as np
import pytest

from mttokit.laurent import (
    MatLaurent,
    VecLaurent,
    boundary_adjoint,
    evaluate,
    inner_residual,
    is_pure,
    multiply,
)
from mttokit.numerics import INNER_TOL

from dimension_oracles import hs_inner
from division_oracles import analytic_split
from product_oracles import tilde
from suite_oracles import l2_inner


def _rand_mat_laurent(d, lo, hi, rng):
    n = hi - lo + 1
    c = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    return MatLaurent(lo, c)


def _diag_z_z2():
    # diag(z, z^2)
    c = np.zeros((3, 2, 2), dtype=complex)
    c[1, 0, 0] = 1.0
    c[2, 1, 1] = 1.0
    return MatLaurent(0, c)


def test_construction_trims_exact_zero_edges():
    z = np.zeros((2, 2))
    a = np.eye(2)
    f = MatLaurent(-1, np.stack([z, a, z]))
    assert (f.lo, f.hi) == (0, 0)
    np.testing.assert_array_equal(f.coeff(0), a)


def test_zero_is_canonical():
    f = MatLaurent(5, np.zeros((3, 2, 2)))
    assert not f.coeffs.any()
    assert (f.lo, f.hi) == (0, 0)


def test_coeff_outside_support_is_zero():
    f = VecLaurent(2, [[1.0, 0.0]])
    np.testing.assert_array_equal(f.coeff(0), np.zeros(2))
    np.testing.assert_array_equal(f.coeff(2), [1.0, 0.0])


def test_multiply_difference_of_squares():
    eye = np.eye(2)
    f = MatLaurent(0, np.stack([eye, eye]))  # I + zI
    g = MatLaurent(0, np.stack([eye, -eye]))  # I - zI
    prod = multiply(f, g)
    assert (prod.lo, prod.hi) == (0, 2)
    np.testing.assert_allclose(prod.coeff(0), eye, atol=1e-15)
    np.testing.assert_allclose(prod.coeff(1), np.zeros((2, 2)), atol=1e-15)
    np.testing.assert_allclose(prod.coeff(2), -eye, atol=1e-15)


def test_multiply_is_associative():
    rng = np.random.default_rng(0)
    for _ in range(10):
        f = _rand_mat_laurent(2, -2, 1, rng)
        g = _rand_mat_laurent(2, 0, 3, rng)
        h = _rand_mat_laurent(2, -1, 2, rng)
        left = multiply(multiply(f, g), h)
        right = multiply(f, multiply(g, h))
        assert (left - right).norm() <= 1e-12 * (1 + left.norm())


def test_boundary_adjoint_reflects_support():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    b = np.array([[0.0, 1j], [0.0, 0.0]])
    f = MatLaurent(0, np.stack([a, b]))  # A + zB
    adj = boundary_adjoint(f)
    assert (adj.lo, adj.hi) == (-1, 0)
    np.testing.assert_allclose(adj.coeff(-1), b.conj().T, atol=1e-15)
    np.testing.assert_allclose(adj.coeff(0), a.conj().T, atol=1e-15)


def test_boundary_adjoint_is_an_involutive_antihomomorphism():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = _rand_mat_laurent(3, -1, 2, rng)
        g = _rand_mat_laurent(3, -2, 1, rng)
        assert (boundary_adjoint(boundary_adjoint(f)) - f).norm() <= 1e-14 * f.norm()
        lhs = boundary_adjoint(multiply(f, g))
        rhs = multiply(boundary_adjoint(g), boundary_adjoint(f))
        assert (lhs - rhs).norm() <= 1e-12 * (1 + lhs.norm())


def test_tilde_adjoints_coefficients_in_place():
    rng = np.random.default_rng(2)
    f = _rand_mat_laurent(2, 0, 3, rng)
    t = tilde(f)
    assert (t.lo, t.hi) == (f.lo, f.hi)
    for k in range(f.lo, f.hi + 1):
        np.testing.assert_allclose(t.coeff(k), f.coeff(k).conj().T, atol=1e-15)
    assert (tilde(t) - f).norm() == 0.0


def test_evaluate_is_multiplicative_on_the_circle():
    rng = np.random.default_rng(3)
    f = _rand_mat_laurent(2, -2, 2, rng)
    g = _rand_mat_laurent(2, -1, 3, rng)
    prod = multiply(f, g)
    for t in np.linspace(0.0, 2 * np.pi, 20, endpoint=False):
        z = np.exp(1j * t)
        lhs = evaluate(prod, z)
        rhs = evaluate(f, z) @ evaluate(g, z)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_evaluate_at_zero():
    f = MatLaurent(0, np.stack([np.eye(2), 2 * np.eye(2)]))
    np.testing.assert_allclose(evaluate(f, 0.0), np.eye(2))
    g = f.shift(-1)
    with pytest.raises(ZeroDivisionError):
        evaluate(g, 0.0)


def test_boundary_adjoint_matches_pointwise_adjoint_on_circle():
    rng = np.random.default_rng(4)
    f = _rand_mat_laurent(3, -2, 3, rng)
    adj = boundary_adjoint(f)
    for t in np.linspace(0.1, 2 * np.pi, 7, endpoint=False):
        z = np.exp(1j * t)
        np.testing.assert_allclose(evaluate(adj, z), evaluate(f, z).conj().T, atol=1e-12)


def test_l2_inner_reproduces_kernel_norm_for_scalar_z_squared():
    # for Theta = z^2 the kernel at lam is 1 + conj(lam) z, whose squared
    # norm is 1 + |lam|^2
    lam = 0.3 - 0.4j
    k = VecLaurent(0, np.array([[1.0], [np.conj(lam)]]))
    val = l2_inner(k, k)
    assert abs(val - (1 + abs(lam) ** 2)) <= 1e-14


def test_l2_inner_linearity_slots():
    rng = np.random.default_rng(5)
    f = VecLaurent(-1, rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)))
    g = VecLaurent(0, rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    c = 0.7 - 0.2j
    assert abs(l2_inner(c * f, g) - c * l2_inner(f, g)) <= 1e-13
    assert abs(l2_inner(f, c * g) - np.conj(c) * l2_inner(f, g)) <= 1e-13
    assert abs(l2_inner(f, g) - np.conj(l2_inner(g, f))) <= 1e-13


def test_l2_inner_agrees_with_circle_quadrature():
    rng = np.random.default_rng(6)
    f = VecLaurent(-2, rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    g = VecLaurent(-1, rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    width = max(f.hi - f.lo, g.hi - g.lo, 1)
    n = 4 * (width + 1)
    total = 0.0 + 0.0j
    for t in range(n):
        z = np.exp(2j * np.pi * t / n)
        total += np.vdot(evaluate(g, z), evaluate(f, z))
    np.testing.assert_allclose(total / n, l2_inner(f, g), atol=1e-8)


def test_hs_inner_of_diag_z_z2_with_itself():
    th = _diag_z_z2()
    assert abs(hs_inner(th, th) - 2.0) <= 1e-14


def test_analytic_split_moves_negative_part_to_starred_factor():
    a = np.array([[1.0, 1j], [0.0, 2.0]])
    b = np.array([[0.5, 0.0], [1.0, 0.0]])
    c = np.array([[0.0, 3.0], [0.0, 1j]])
    f = MatLaurent(-1, np.stack([a, b, c]))  # a/z + b + c z
    plus, star = analytic_split(f)
    assert (plus.lo, plus.hi) == (0, 1)
    np.testing.assert_allclose(plus.coeff(0), b, atol=1e-15)
    np.testing.assert_allclose(plus.coeff(1), c, atol=1e-15)
    assert star.lo >= 1
    np.testing.assert_allclose(star.coeff(1), a.conj().T, atol=1e-15)
    recomposed = plus + boundary_adjoint(star)
    assert (recomposed - f).norm() == 0.0


def test_analytic_split_of_analytic_argument_has_zero_star_part():
    f = MatLaurent(0, np.stack([np.eye(2), np.eye(2)]))
    plus, star = analytic_split(f)
    assert not star.coeffs.any()
    assert (plus - f).norm() == 0.0


def test_inner_residual_accepts_diagonal_monomials():
    assert inner_residual(_diag_z_z2()) <= 1e-15


def test_inner_residual_rejects_contractions_and_non_analytic():
    half = MatLaurent(1, np.stack([0.5 * np.eye(2)]))
    assert inner_residual(half) > INNER_TOL
    with pytest.raises(ValueError):
        inner_residual(MatLaurent(-1, np.stack([np.eye(2)])))


def test_is_pure_needs_strict_contraction_at_origin():
    # diag(z, 1) is inner but its value at 0 has norm one
    c = np.zeros((2, 2, 2), dtype=complex)
    c[0, 1, 1] = 1.0
    c[1, 0, 0] = 1.0
    th = MatLaurent(0, c)
    assert inner_residual(th) <= INNER_TOL
    assert not is_pure(th)
    assert is_pure(_diag_z_z2())


def test_scalar_operations_and_shift():
    f = VecLaurent(0, [[1.0, 0.0], [0.0, 1.0]])
    g = f.shift(2)
    assert (g.lo, g.hi) == (2, 3)
    h = 2.0 * f - f
    assert (h - f).norm() <= 1e-15
