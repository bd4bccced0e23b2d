"""The one-identity route against the exact class of rotated monomials.

For Theta = W diag(z^m_1, ..., z^m_d) W* the class is U T U* with U = Q* M
unitary and T any block matrix whose (i, j) block is an m_i x m_j Toeplitz
matrix (`monomial_oracles`), so members, the exact distance of a
perturbation and the class dimension sum_{i,j} (m_i + m_j - 1) = 2nd - d^2
are known without the package.  On spaces with n up to 60 (and n = d):
every member passes, a member moved off the class by 1e-6 ||A||_F is
rejected and refused by recover_symbol, the certified interval holds the
exact distance, mtto_dimension gives the exact count, and the recovered
pair rebuilds A as an operator (the pair itself is fixed only up to the
zero-symbol gauge, so symbols are not compared).
"""

import numpy as np
import pytest

from mttokit.errors import NotMttoError
from mttokit.laurent import boundary_adjoint
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, is_mtto, mtto_dimension, recover_symbol
from mttokit.numerics import frobenius
from mttokit.randgen import haar_unitary

from monomial_oracles import block_toeplitz_part, exact_distance, monomial_frame, monomial_inner

SHAPES = [(1, 1, 1), (4,), (1, 5), (2, 3, 5), (9, 4, 13, 7), (30, 29), (20, 25, 15)]


def _space(ms):
    w = haar_unitary(len(ms), np.random.default_rng(300 + sum(ms)))
    basis = ModelSpaceBasis(monomial_inner(w, ms))
    return basis, w, basis.q.conj().T @ monomial_frame(w, ms)  # U: basis coordinates of the monomials


def _gaussian(n, rng):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


@pytest.mark.parametrize("ms", SHAPES, ids=str)
def test_exact_class_members_and_perturbations(ms):
    basis, w, u = _space(ms)
    n, d = sum(ms), len(ms)
    assert basis.n == n and np.abs(u.conj().T @ u - np.eye(n)).max() <= 1e-12
    rng = np.random.default_rng(n)
    for _ in range(3):
        a = u @ block_toeplitz_part(_gaussian(n, rng), ms) @ u.conj().T
        got = is_mtto(basis, a)
        assert got.verdict and got.residual <= 1e-12 * frobenius(a)
        rec = recover_symbol(basis, a)
        rebuilt = build(basis, rec.psi1 + boundary_adjoint(rec.psi2)).mat
        assert frobenius(rebuilt - a) <= 1e-10 * frobenius(a)
        if n == d:
            continue  # every operator is a member
        off = _gaussian(n, rng)
        off = u @ (off - block_toeplitz_part(off, ms)) @ u.conj().T  # orthogonal to the class
        moved = a + 1e-6 * frobenius(a) / frobenius(off) * off
        dist = exact_distance(basis, w, ms, moved)
        assert abs(dist - 1e-6 * frobenius(a)) <= 1e-9 * dist
        got = is_mtto(basis, moved)
        lo, hi = got.distance_bounds
        assert not got.verdict and lo <= dist * (1 + 1e-9) and dist <= hi * (1 + 1e-9)
        with pytest.raises(NotMttoError):
            recover_symbol(basis, moved)


@pytest.mark.parametrize("ms", SHAPES, ids=str)
def test_class_dimension_is_the_exact_count(ms):
    basis = _space(ms)[0]
    n, d = sum(ms), len(ms)
    exact = sum(mi + mj - 1 for mi in ms for mj in ms)
    assert exact == 2 * n * d - d * d
    report = mtto_dimension(basis)
    assert report.dim == exact
