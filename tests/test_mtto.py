import numpy as np
import pytest

from mttokit.errors import DimensionMismatchError, NotMttoError
from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent, VecLaurent, boundary_adjoint, evaluate, multiply
from mttokit.model_operator import s_theta
from mttokit.model_space import (
    ModelSpaceBasis,
    kernel,
    kernel_frame,
    make_inner_potapov,
    tilde_kernel,
    tilde_kernel_frame,
)
from mttokit.mtto import (
    build,
    finite_rank,
    finite_rank_as_xhat,
    is_mtto,
    kernel_frame,
    membership_witness,
    mtto_dimension,
    recover_symbol,
    semi_commutator_left_factor,
    semi_commutator_residual,
    zero_symbol_decompose,
)
from mttokit.numerics import opnorm, rank
from mttokit.randgen import random_inner

from basis_oracles import membership_residual
from dimension_oracles import SymbolSpaceBasis
from division_oracles import commutant_quotient
from membership_oracles import rebuild_bound
from suite_oracles import from_coords, project


def _basis(name):
    return ModelSpaceBasis(fixture(name))


def _rand_symbol(d, lo, hi, rng):
    c = rng.standard_normal((hi - lo + 1, d, d)) + 1j * rng.standard_normal((hi - lo + 1, d, d))
    return MatLaurent(lo, c)


def _lower_corner_symbol():
    return MatLaurent.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_build_constant_lower_corner_on_diag_theta():
    basis = _basis("FIX3")
    a = build(basis, _lower_corner_symbol())  # the basis is (0, 1), (1, 0), z (0, 1)
    want = np.zeros((3, 3))
    want[0, 1] = 1.0
    np.testing.assert_allclose(a.mat, want, atol=1e-14)
    assert rank(a.mat) == 1


def test_build_of_z_is_the_shift_and_of_one_is_the_identity():
    for name in ("FIX2", "FIX3", "FIX5"):
        basis = _basis(name)
        d = basis.inner.d
        s, _ = s_theta(basis)
        z_eye = MatLaurent(1, np.eye(d)[np.newaxis])
        np.testing.assert_allclose(build(basis, z_eye).mat, s, atol=1e-12)
        np.testing.assert_allclose(build(basis, MatLaurent.identity(d)).mat, np.eye(basis.n), atol=1e-12)


def test_build_rejects_wrong_dimension():
    with pytest.raises(DimensionMismatchError):
        build(_basis("FIX3"), MatLaurent.identity(3))


def test_adjoint_of_built_operator_is_built_from_adjoint_symbol():
    rng = np.random.default_rng(31)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        for _ in range(6):
            phi = _rand_symbol(basis.inner.d, -2, 3, rng)
            a = build(basis, phi)
            a_star = build(basis, boundary_adjoint(phi))
            assert opnorm(a.mat.conj().T - a_star.mat) <= 1e-10 * (1 + opnorm(a.mat))


def test_build_is_linear_in_the_symbol():
    rng = np.random.default_rng(32)
    basis = _basis("FIX5")
    f = _rand_symbol(2, -1, 2, rng)
    g = _rand_symbol(2, 0, 1, rng)
    c = 1.3 - 0.7j
    lhs = build(basis, f + c * g).mat
    rhs = build(basis, f).mat + c * build(basis, g).mat
    assert opnorm(lhs - rhs) <= 1e-12 * (1 + opnorm(lhs))


def test_example_vector_stays_in_model_space_but_leaves_invariant_subspace():
    basis = _basis("FIX3")
    phi = _lower_corner_symbol()
    f = VecLaurent(1, [[1.0, 0.0]])  # (z, 0), inside Theta H^2
    image = multiply(phi, f)  # (0, z)
    assert (image - VecLaurent(1, [[0.0, 1.0]])).norm() <= 1e-14
    # the image lies in the model space, hence outside Theta H^2
    assert membership_residual(basis, image) <= 1e-12
    assert (project(basis, image) - image).norm() <= 1e-12


def test_semi_commutator_identity_for_analytic_symbols():
    rng = np.random.default_rng(33)
    for name in ("FIX2", "FIX3", "FIX5"):
        basis = _basis(name)
        s, s_adj = s_theta(basis)
        for _ in range(8):
            phi = _rand_symbol(basis.inner.d, 0, 3, rng)
            a = build(basis, phi)
            assert semi_commutator_residual(basis, phi, a) <= 1e-10 * (1 + opnorm(a.mat))
            # the closed form only sees the value at the origin
            delta = a.mat - s @ a.mat @ s_adj
            factor = semi_commutator_left_factor(basis, phi)
            assert opnorm(delta - factor) <= 1e-10 * (1 + opnorm(a.mat))
            assert rank(factor) <= basis.inner.d


def test_semi_commutator_rejects_non_analytic_symbols():
    basis = _basis("FIX3")
    phi = MatLaurent(-1, np.eye(2)[np.newaxis])
    with pytest.raises(ValueError):
        semi_commutator_residual(basis, phi, np.zeros((3, 3)))


def test_built_operators_pass_the_membership_test():
    rng = np.random.default_rng(34)
    for name in ("FIX2", "FIX3", "FIX4", "FIX5"):
        basis = _basis(name)
        for _ in range(10):
            phi = _rand_symbol(basis.inner.d, -3, 3, rng)
            a = build(basis, phi)
            decision = is_mtto(basis, a)
            assert decision.verdict, (name, decision.residual)
            assert membership_witness(basis, a).residual <= 1e-8 * (1 + opnorm(a.mat))
            assert membership_witness(basis, a, starred=True).residual <= 1e-8 * (1 + opnorm(a.mat))


def test_membership_variants_agree_and_reject_outside_operators():
    basis = _basis("FIX3")
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 2] = 1.0  # rank one on the z-direction, outside the class
    decision = is_mtto(basis, bad)
    assert not decision.verdict
    assert decision.residual >= 1e-3
    assert membership_witness(basis, bad, starred=True).residual >= 1e-3
    s, _ = s_theta(basis)
    assert is_mtto(basis, s).verdict
    assert is_mtto(basis, np.eye(3)).verdict


def test_membership_tolerance_scales_with_the_operator():
    basis = _basis("FIX3")
    a = build(basis, _lower_corner_symbol())
    assert is_mtto(basis, 1e6 * a.mat).verdict


def test_everything_is_a_member_when_the_defect_fills_the_space():
    rng = np.random.default_rng(35)
    for name in ("FIX4", "FIX5"):
        basis = _basis(name)
        assert membership_witness(basis, np.zeros((basis.n, basis.n)), starred=True).residual == 0.0
        for _ in range(5):
            a = rng.standard_normal((basis.n, basis.n)) + 1j * rng.standard_normal((basis.n, basis.n))
            decision = is_mtto(basis, a)
            assert decision.verdict
            assert membership_witness(basis, a, starred=True).residual <= 1e-12


def test_shift_invariance_defect_agrees_with_membership():
    rng = np.random.default_rng(36)
    basis = _basis("FIX3")
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        decision = is_mtto(basis, a)
        defect = membership_witness(basis, a, starred=True).residual
        assert (defect <= decision.tol) == decision.verdict or decision.residual > 1e-6
        # the starred split residual equals the plain residual in exact arithmetic
        assert abs(defect - decision.residual) <= 1e-10 * (1 + defect)


def test_commutant_quotient_for_powers_of_theta_and_the_shift_symbol():
    basis = _basis("FIX3")
    theta = basis.inner.theta
    phi1, res = commutant_quotient(basis.inner, theta)
    assert res <= 1e-12
    assert (phi1 - theta).norm() <= 1e-10
    z_eye = MatLaurent(1, np.eye(2)[np.newaxis])
    phi1z, resz = commutant_quotient(basis.inner, z_eye)
    assert resz <= 1e-12
    assert (phi1z - z_eye).norm() <= 1e-10


def test_commutant_quotient_fails_for_the_lower_corner_symbol():
    basis = _basis("FIX3")
    phi = _lower_corner_symbol()
    _, res = commutant_quotient(basis.inner, phi)
    assert res > 0.1
    a = build(basis, phi)
    s, _ = s_theta(basis)
    assert opnorm(a.mat @ s - s @ a.mat) > 0.5


def test_commutant_quotient_on_random_polynomials_in_theta_and_z():
    rng = np.random.default_rng(37)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        theta = basis.inner.theta
        d = basis.inner.d
        for _ in range(5):
            phi = MatLaurent.zero(d)
            power = MatLaurent.identity(d)
            for k in range(3):
                c = rng.standard_normal() + 1j * rng.standard_normal()
                j = int(rng.integers(0, 3))
                phi = phi + c * power.shift(j)
                power = multiply(power, theta)
            _, res = commutant_quotient(basis.inner, phi)
            assert res <= 1e-9 * (1 + phi.norm())


def test_recover_symbol_round_trips_built_operators():
    rng = np.random.default_rng(38)
    for name in ("FIX2", "FIX3", "FIX5"):
        basis = _basis(name)
        sym = SymbolSpaceBasis(basis)
        for _ in range(6):
            coeffs = rng.standard_normal(2 * len(sym)) + 1j * rng.standard_normal(2 * len(sym))
            psi1 = MatLaurent.zero(basis.inner.d)
            psi2 = MatLaurent.zero(basis.inner.d)
            for i, el in enumerate(sym.elements):
                psi1 = psi1 + complex(coeffs[i]) * el
                psi2 = psi2 + complex(coeffs[len(sym) + i]) * el
            a = build(basis, psi1 + boundary_adjoint(psi2))
            rec = recover_symbol(basis, a)
            assert rec.residual <= 1e-8 * (1 + opnorm(a.mat))
            again = build(basis, rec.psi1 + boundary_adjoint(rec.psi2))
            assert opnorm(again.mat - a.mat) <= 1e-8 * (1 + opnorm(a.mat))


def test_recover_symbol_of_zero_is_the_zero_pair():
    basis = _basis("FIX3")
    rec = recover_symbol(basis, np.zeros((3, 3)))
    assert not rec.psi1.coeffs.any() and not rec.psi2.coeffs.any()


def test_recover_symbol_refuses_outsiders():
    basis = _basis("FIX3")
    bad = np.zeros((3, 3), dtype=complex)
    bad[2, 2] = 1.0
    with pytest.raises(NotMttoError):
        recover_symbol(basis, bad)


def test_zero_symbol_decomposition_round_trip():
    rng = np.random.default_rng(39)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        theta = basis.inner.theta
        d = basis.inner.d
        for _ in range(5):
            psi1 = _rand_symbol(d, 0, 2, rng)
            psi2 = _rand_symbol(d, 0, 1, rng)
            phi = multiply(theta, psi1) + boundary_adjoint(multiply(theta, psi2))
            a = build(basis, phi)
            assert opnorm(a.mat) <= 1e-9 * (1 + phi.norm())
            result = zero_symbol_decompose(basis, phi)
            assert result.is_zero
            assert result.residual <= 1e-8 * (1 + phi.norm())


def test_zero_symbol_detects_nonzero_component():
    basis = _basis("FIX3")
    phi = _lower_corner_symbol()
    result = zero_symbol_decompose(basis, phi)
    assert not result.is_zero
    assert abs(result.operator_norm - 1.0) <= 1e-12
    assert result.psi1 is None


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_zero_symbol_default_tolerance_is_relative(scale):
    # a symbol's verdict must not depend on its scale: scale * I acts as
    # scale * I on FIX3, and a zero symbol stays zero however small
    basis = _basis("FIX3")
    live = zero_symbol_decompose(basis, scale * MatLaurent.identity(2))
    assert not live.is_zero
    assert abs(live.operator_norm - scale) <= 1e-12 * scale
    theta = basis.inner.theta
    zero = scale * (multiply(theta, _lower_corner_symbol()) + boundary_adjoint(theta))
    result = zero_symbol_decompose(basis, zero)
    assert result.is_zero and result.residual <= 1e-12 * zero.norm()
    analytic = zero_symbol_decompose(basis, scale * theta)
    assert analytic.is_zero and analytic.residual <= 1e-12 * scale and not analytic.psi2.coeffs.any()
    assert (analytic.psi1 - scale * MatLaurent.identity(2)).norm() <= 1e-12 * scale


def test_identity_checks_hold_to_what_the_decision_certified():
    # a loose decision tol lets a 1e-10 input through; its by-product holds to
    # what that decision certified (tol for a zero symbol's split, the upper
    # end m * residual of the distance bracket for a rebuild), above 1e-8 of the
    # input's own scale; at the default tol a member rebuilds to rounding
    basis = _basis("FIX3")
    tiny = 1e-10 * MatLaurent.identity(2)  # no Theta Psi1 + (Theta Psi2)* equals it
    result = zero_symbol_decompose(basis, tiny, tol=1e-6)
    assert result.is_zero and 1e-8 * tiny.norm() < result.residual <= 1e-6
    outside = np.zeros((3, 3), dtype=complex)
    outside[2, 2] = 1e-10
    rec = recover_symbol(basis, outside, tol=1e-6)
    m = basis.inner.m
    assert 1e-8 * 1e-10 < rec.residual <= rebuild_bound(m, rec.membership_residual, np.linalg.norm(outside))
    member = 1e-10 * build(basis, _rand_symbol(2, -2, 2, np.random.default_rng(44))).mat
    rec = recover_symbol(basis, member)
    assert rec.residual <= 1e-12 * opnorm(member)
    assert rec.residual <= rebuild_bound(m, rec.membership_residual, np.linalg.norm(member))


def test_kernel_frame_pairs_induce_the_zero_operator():
    # the gauge freedom of the symbol pair: the kernel-frame symbol in the
    # first slot cancels its own boundary adjoint in the second
    rng = np.random.default_rng(40)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        theta = basis.inner.theta
        d = basis.inner.d
        theta0 = theta.coeff(0)
        k0 = MatLaurent.identity(d) - multiply(theta, MatLaurent.constant(theta0.conj().T))
        for _ in range(4):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            psi1 = multiply(k0, MatLaurent.constant(x))
            psi2 = -1.0 * multiply(k0, MatLaurent.constant(x.conj().T))
            phi = psi1 + boundary_adjoint(psi2)
            assert opnorm(build(basis, phi).mat) <= 1e-10 * (1 + phi.norm())


def test_an_analytic_zero_symbol_has_psi2_zero_and_psi1_phi_over_theta():
    rng = np.random.default_rng(41)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        theta = basis.inner.theta
        for _ in range(5):
            g = _rand_symbol(basis.inner.d, 0, 2, rng)
            phi = multiply(theta, g)
            result = zero_symbol_decompose(basis, phi)
            assert result.is_zero and result.residual <= 1e-10 * (1 + phi.norm())
            assert not result.psi2.coeffs.any()
            assert (result.psi1 - g).norm() <= 1e-9 * (1 + g.norm())


def test_dimension_counts_match_the_linear_reading():
    cases = [
        ("FIX2", _basis("FIX2"), 3),
        ("FIX3", _basis("FIX3"), 8),
        ("FIX4", _basis("FIX4"), 4),
        ("z2eye", ModelSpaceBasis(make_inner_potapov([np.eye(2), np.eye(2)])), 12),
    ]
    for name, basis, want in cases:
        report = mtto_dimension(basis)
        d = basis.inner.d
        assert report.dim == want, name
        assert report.gauge_dim == d * d, name
        assert report.dim == report.symbol_pair_dim - report.gauge_dim == 2 * basis.n * d - d * d, name
    # the report reads the count off the validated Theta as well as off a basis
    assert mtto_dimension(fixture("FIX3")) == mtto_dimension(_basis("FIX3"))


def test_finite_rank_operators_have_the_rank_of_their_block():
    rng = np.random.default_rng(42)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        d = basis.inner.d
        for lam in (0.0, 0.5, 0.3 + 0.4j):
            for r in range(d + 1):
                if r == 0:
                    y = np.zeros((d, d), dtype=complex)
                else:
                    y = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))) @ (
                        rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
                    )
                op = finite_rank(basis, lam, y)
                assert rank(op.mat) == r
                assert is_mtto(basis, op).verdict
                swapped = tilde_kernel_frame(basis, lam) @ y @ kernel_frame(basis, lam).conj().T  # K~_lam y K_lam*
                assert rank(swapped) == r
                assert is_mtto(basis, swapped).verdict


def test_finite_rank_at_origin_matches_defect_block_form():
    rng = np.random.default_rng(43)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        d = basis.inner.d
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        direct = finite_rank(basis, 0.0, y)
        via_defect = finite_rank_as_xhat(basis, y)
        assert opnorm(direct.mat - via_defect.mat) <= 1e-9 * (1 + opnorm(direct.mat))


def test_kernel_frame_columns_reproduce_kernels():
    """The window frames agree column by column with the Laurent kernels,
    and the kernel frame reproduces point values: <f, k_lam x> = <f(lam), x>."""
    spaces = [_basis(name) for name in ("FIX1", "FIX2", "FIX3", "FIX4", "FIX5")]
    spaces += [ModelSpaceBasis(random_inner(d, m, np.random.default_rng(40 + d))) for d, m in ((3, 2), (4, 3))]
    rng = np.random.default_rng(9)
    for basis in spaces:
        d = basis.inner.d
        for lam in (0.0, 0.25 - 0.1j, -0.7j):
            k, kt = kernel_frame(basis, lam), tilde_kernel_frame(basis, lam)
            assert k.shape == kt.shape == (basis.n, d)
            for j, e in enumerate(np.eye(d)):
                for got, want in (
                    (k[:, j], basis.coords(kernel(basis.inner, lam, e)[0])),
                    (kt[:, j], basis.coords(tilde_kernel(basis.inner, lam, e)[0])),
                ):
                    assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want))
            c = rng.standard_normal(basis.n) + 1j * rng.standard_normal(basis.n)
            x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            value = evaluate(from_coords(basis, c), lam)
            assert abs(np.vdot(k @ x, c) - np.vdot(x, value)) <= 1e-12 * (1.0 + np.linalg.norm(c) * np.linalg.norm(x))


def test_default_tolerance_is_relative_to_the_operator_scale():
    basis = _basis("FIX2")
    rng = np.random.default_rng(5)
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    tiny = 1e-10 * g / opnorm(g)
    decision = is_mtto(basis, tiny)
    assert not decision.verdict and decision.residual > 1e3 * decision.tol
    a = 1e-10 * build(basis, _rand_symbol(1, -1, 1, rng)).mat
    assert is_mtto(basis, a).verdict
    zero = is_mtto(basis, np.zeros((2, 2)))
    assert zero.verdict and zero.residual == zero.tol == 0.0
    rec = recover_symbol(basis, np.zeros((2, 2)))
    assert not rec.psi1.coeffs.any() and not rec.psi2.coeffs.any()
