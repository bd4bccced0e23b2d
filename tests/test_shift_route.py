"""The compressed shift as the row-block shift of the basis.

Z moves window block j to block j + 1, so S = Q* Z Q = Q[d:]* Q[:md - d]
and S* is its conjugate transpose; no md x md window matrix is formed.
The dense compression Q* Z Q stays as the oracle (`membership_oracles`).
`defect_spaces` forms no S: it refuses a basis turned off the model space
after it was built, or a Theta_1 moved under its basis where Theta_0 != 0,
by comparing Q K0 and Q K0~ with the kernel and the difference quotient at
0, read off Theta; where Theta_0 = 0 that move is not seen.  A cold `s_theta`, `semi_commutator_left_factor` or
`defect_spaces` must stay below one md x md complex array in traced
memory.
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

from basis_oracles import theta1_moved, turned_off
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
    assert np.linalg.norm(s - _shift(basis)) <= 1e-14
    assert np.array_equal(s_adj, s.conj().T)
    assert not s.flags.writeable and not s_adj.flags.writeable


@pytest.mark.parametrize("name", ["FIX1", "FIX4", "monomial-1-1-1"])
def test_shift_is_zero_when_m_is_one(name):
    basis = ModelSpaceBasis(SPACES[name])
    assert basis.inner.m == 1
    s, s_adj = s_theta(basis)
    assert s.shape == (basis.n, basis.n) and not s.any() and not s_adj.any()


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
    with pytest.raises(IdentityCheckError, match="frame at 0 left the model space"):
        defect_spaces(basis)


MOVED_THETA1_REFUSED = ["FIX5", "random-3x3"]  # the spaces here with Theta_0 != 0


def _theta1_moved(name):
    return theta1_moved(ModelSpaceBasis(SPACES[name]), np.random.default_rng(7))


@pytest.mark.parametrize("name", MOVED_THETA1_REFUSED)
def test_defect_spaces_refuses_a_theta1_moved_under_its_basis(name):
    """The kernel at 0 has the window E0 - [Theta_0; ...; Theta_{m-1}] Theta_0*,
    which leaves span Q when Theta_0 != 0."""
    assert np.linalg.norm(SPACES[name].blocks[0]) > 0.1
    with pytest.raises(IdentityCheckError, match="kernel frame at 0 left the model space"):
        defect_spaces(_theta1_moved(name))


@pytest.mark.parametrize("name", [name for name in SPACES if name not in MOVED_THETA1_REFUSED])
def test_defect_spaces_does_not_see_a_theta1_moved_where_theta0_is_zero(name):
    """Where Theta_0 = 0 (up to rounding) the constants lie in K_Theta, so both
    windows the frame check compares stay in span Q and the move is not seen.
    No package path reassigns `basis.inner`: `defect_spaces` trusts that the
    inner function of a basis is the one it was built from."""
    assert np.linalg.norm(SPACES[name].blocks[0]) <= 1e-16
    assert defect_spaces(_theta1_moved(name)).dim == SPACES[name].d


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _window_480(rng):
    """The d = 6, m = 80 Potapov space (n = 240) and the bytes of one
    md x md complex array, 3.69 MB."""
    d, m = 6, 80
    inner = make_inner_potapov([random_projection(d, 3, rng) for _ in range(m)], left_unitary=haar_unitary(d, rng))
    basis = ModelSpaceBasis(inner)
    assert (basis.n, inner.m * d) == (240, 480)
    return basis, (inner.m * d) ** 2 * np.dtype(np.complex128).itemsize


def test_cold_shift_and_left_factor_stay_below_one_window_matrix():
    rng = np.random.default_rng(3)
    basis, window_bytes = _window_480(rng)
    assert _traced_peak(s_theta, basis) < window_bytes
    phi = random_symbol(basis.inner.d, 0, 5, rng)
    assert _traced_peak(semi_commutator_left_factor, basis, phi) < window_bytes


def test_cold_defect_spaces_forms_no_shift_and_stays_below_one_window_matrix():
    basis, window_bytes = _window_480(np.random.default_rng(3))
    assert _traced_peak(defect_spaces, basis) < window_bytes
    assert "shift" not in basis.cache and "defects" in basis.cache
