import numpy as np
import pytest

from mttokit.fixtures import fixture
from mttokit.laurent import is_inner, is_pure, multiply
from mttokit.model_operator import c_symmetric, conjugation_matrix, gamma_symmetric_residual, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, is_mtto
from mttokit.numerics import opnorm
from mttokit.randgen import (
    gamma_real_basis,
    haar_unitary,
    random_commuting_symbol,
    random_gamma,
    random_gamma_symmetric_triple,
    random_inner,
    random_non_member,
    random_projection,
    random_symbol,
)

from membership_oracles import non_member


def test_haar_unitary_is_unitary_and_seeded():
    rng = np.random.default_rng(7)
    u = haar_unitary(4, rng)
    assert opnorm(u.conj().T @ u - np.eye(4)) <= 1e-12
    again = haar_unitary(4, np.random.default_rng(7))
    np.testing.assert_array_equal(u, again)


def test_random_projection_rank_and_idempotence():
    rng = np.random.default_rng(8)
    for rk in range(4):
        p = random_projection(3, rk, rng)
        assert opnorm(p @ p - p) <= 1e-12
        assert opnorm(p - p.conj().T) <= 1e-12
        assert abs(np.trace(p).real - rk) <= 1e-9
    with pytest.raises(ValueError):
        random_projection(3, 4, rng)


def test_random_inner_is_inner_pure_and_usable():
    rng = np.random.default_rng(9)
    for d, m in ((1, 2), (2, 2), (3, 2)):
        inner = random_inner(d, m, rng)
        assert is_inner(inner.theta)
        assert is_pure(inner.theta)
        basis = ModelSpaceBasis(inner)
        assert basis.n == inner.n >= m


def test_random_symbol_window():
    rng = np.random.default_rng(10)
    phi = random_symbol(2, -2, 3, rng)
    assert phi.lo >= -2 and phi.hi <= 3 and phi.dim == 2


def test_random_gamma_fixed_basis():
    rng = np.random.default_rng(11)
    gamma = random_gamma(3, rng)
    b = gamma_real_basis(gamma, rng)
    assert opnorm(b.conj().T @ b - np.eye(3)) <= 1e-10
    for i in range(3):
        assert np.linalg.norm(gamma.apply(b[:, i]) - b[:, i]) <= 1e-10


def test_gamma_symmetric_triple_properties():
    rng = np.random.default_rng(12)
    for d, m in ((2, 2), (3, 3)):
        gamma, inner, phi = random_gamma_symmetric_triple(d, m, rng)
        assert is_pure(inner.theta)
        assert gamma_symmetric_residual(inner.theta, gamma) <= 1e-10
        assert gamma_symmetric_residual(phi, gamma) <= 1e-10
        assert (multiply(phi, inner.theta) - multiply(inner.theta, phi)).norm() <= 1e-10
        basis = ModelSpaceBasis(inner)
        a = build(basis, phi)
        ok, res = c_symmetric(basis, gamma, a.mat)
        assert ok, res
        # the conjugation matrix itself must exist for these inners
        conjugation_matrix(basis, gamma)


def test_random_commuting_symbol_commutes():
    rng = np.random.default_rng(13)
    basis = ModelSpaceBasis(fixture("FIX3"))
    s, _ = s_theta(basis)
    for _ in range(5):
        phi = random_commuting_symbol(basis, rng)
        a = build(basis, phi)
        assert opnorm(a.mat @ s.mat - s.mat @ a.mat) <= 1e-9 * (1 + opnorm(a.mat))


def test_random_non_member_certified():
    rng = np.random.default_rng(14)
    for name in ("FIX2", "FIX3"):
        basis = ModelSpaceBasis(fixture(name))
        a = random_non_member(basis, rng)
        assert abs(opnorm(a) - 1.0) <= 1e-9
        decision = is_mtto(basis, a)
        assert not decision.verdict
        assert decision.residual >= 1e-3


def test_random_non_member_is_orthogonal_to_the_class():
    rng = np.random.default_rng(16)
    bases = [ModelSpaceBasis(fixture(name)) for name in ("FIX2", "FIX3")]
    bases += [ModelSpaceBasis(random_inner(d, m, rng)) for d, m in ((2, 4), (3, 3))]
    for basis in bases:
        a = random_non_member(basis, rng)
        assert is_mtto(basis, a).residual >= 1e-3
        for _ in range(4):
            member = build(basis, random_symbol(basis.inner.d, -3, 3, rng)).mat
            assert abs(np.vdot(member, a)) <= 1e-12 * np.linalg.norm(member)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_random_non_member_draws_the_reference_operators_bit_for_bit(seed):
    bases = [ModelSpaceBasis(fixture(name)) for name in ("FIX2", "FIX3")]
    bases += [ModelSpaceBasis(random_inner(2, 3, np.random.default_rng(seed)))]
    for basis in bases:
        got, want = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert np.array_equal(random_non_member(basis, got), non_member(basis, want))
        assert got.bit_generator.state == want.bit_generator.state


def test_random_non_member_refused_when_class_is_everything():
    rng = np.random.default_rng(15)
    basis = ModelSpaceBasis(fixture("FIX4"))
    with pytest.raises(ValueError):
        random_non_member(basis, rng)
