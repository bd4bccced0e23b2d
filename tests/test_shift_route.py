"""The compressed shift as the row-block shift of the basis.

Z moves window block j to block j + 1, so S = Q* Z Q = Q[d:]* Q[:md - d]
and S* is its conjugate transpose; no md x md window matrix is formed.
The dense compression Q* Z Q stays as the oracle (`membership_oracles`),
and the defect identities of `defect_spaces` are a check that refuses a
basis turned off the model space after it was built.  A cold `s_theta` or
`semi_commutator_left_factor` must stay below one md x md complex array
in traced memory.
"""

import tracemalloc

import numpy as np
import pytest

from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.model_operator import defect_spaces, s_theta
from mttokit.model_space import ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import semi_commutator_left_factor
from mttokit.randgen import haar_unitary, random_inner, random_projection, random_symbol

from basis_oracles import turned_off
from membership_oracles import _shift
from monomial_oracles import monomial_inner


def _spaces():
    inners = {name: fixture(name) for name in FIXTURE_NAMES}
    for d, m, seed in ((2, 4, 11), (3, 3, 12), (4, 2, 13), (2, 12, 14), (3, 4, 15)):
        inners[f"random-{d}x{m}"] = random_inner(d, m, np.random.default_rng(seed))
    for ms, seed in (((1, 3), 21), ((2, 2, 4), 22), ((5,), 23), ((1, 1, 1), 24)):
        w = haar_unitary(len(ms), np.random.default_rng(seed))
        inners["monomial-" + "-".join(map(str, ms))] = monomial_inner(w, ms)
    return inners


SPACES = _spaces()  # FIX1, FIX4 and monomial-1-1-1 have m = 1 (S = 0); FIX5 has n = d with m = 2


@pytest.mark.parametrize("name", list(SPACES))
def test_s_theta_is_the_dense_compression_and_its_adjoint_exactly(name):
    basis = ModelSpaceBasis(SPACES[name])
    s, s_adj = s_theta(basis)
    assert np.linalg.norm(s.mat - _shift(basis)) <= 1e-14
    assert np.array_equal(s_adj.mat, s.mat.conj().T)
    assert not s.mat.flags.writeable and not s_adj.mat.flags.writeable


@pytest.mark.parametrize("name", ["FIX1", "FIX4", "monomial-1-1-1"])
def test_shift_is_zero_when_m_is_one(name):
    basis = ModelSpaceBasis(SPACES[name])
    assert basis.inner.m == 1
    s, s_adj = s_theta(basis)
    assert s.mat.shape == (basis.n, basis.n) and not s.mat.any() and not s_adj.mat.any()


def _turned(inner):
    """A basis turned 1e-4 off the model space after it was built."""
    basis = ModelSpaceBasis(inner)
    basis.q = turned_off(basis.q)
    return basis


@pytest.mark.parametrize("name", ["FIX3", "FIX5", "random-3x4"])
def test_defect_spaces_refuses_a_basis_turned_off_the_model_space(name):
    inner = SPACES[name]
    assert ModelSpaceBasis(inner).n < inner.m * inner.d  # room outside the model space
    defect_spaces(ModelSpaceBasis(inner))
    basis = _turned(inner)
    assert np.allclose(basis.q.conj().T @ basis.q, np.eye(basis.n))
    with pytest.raises(IdentityCheckError, match="defect identity"):
        defect_spaces(basis)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cold_shift_and_left_factor_stay_below_one_window_matrix():
    d, m = 6, 80
    rng = np.random.default_rng(3)
    inner = make_inner_potapov([random_projection(d, 3, rng) for _ in range(m)], left_unitary=haar_unitary(d, rng))
    basis = ModelSpaceBasis(inner)
    assert (basis.n, inner.m * d) == (240, 480)
    window_bytes = (inner.m * d) ** 2 * np.dtype(np.complex128).itemsize  # 3.69 MB
    assert _traced_peak(s_theta, basis) < window_bytes
    phi = random_symbol(d, 0, 5, rng)
    assert _traced_peak(semi_commutator_left_factor, basis, phi) < window_bytes
