"""The window route pinned to the per-element Laurent route.

Operators are assembled as Q* M Q from a matrix M on the coefficient
window.  The helpers below assemble the same matrices the slow way, one
basis element at a time through Laurent products and shifts, and serve
as the reference for build, s_theta and the two brute-force class maps
that the dimension tests count by SVD.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import VecLaurent, boundary_adjoint, multiply
from mttokit.model_operator import defect_spaces, j_operators, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, semi_commutator_left_factor
from mttokit.randgen import random_inner, random_symbol

from dimension_oracles import SymbolSpaceBasis, stein_constraint, symbol_pair_map
from element_oracles import element_coords
from suite_oracles import element


def _spaces():
    inners = [fixture(name) for name in FIXTURE_NAMES]
    inners.append(random_inner(2, 4, np.random.default_rng(31)))
    inners.append(random_inner(3, 3, np.random.default_rng(32)))
    return [ModelSpaceBasis(inner) for inner in inners]


SPACES = _spaces()
IDS = list(FIXTURE_NAMES) + ["random-2x4", "random-3x3"]


def _assert_close(got, want):
    assert np.linalg.norm(got - want) <= 1e-12 * (1.0 + np.linalg.norm(want))


def _laurent_build(basis, phi):
    return np.column_stack([element_coords(basis, multiply(phi, element(basis, j))) for j in range(basis.n)])


def _laurent_shift_pair(basis):
    s, s_adj = [], []
    for j in range(basis.n):
        e = element(basis, j)
        s.append(element_coords(basis, VecLaurent(e.lo + 1, e.coeffs)))
        g = e - VecLaurent.constant(e.coeff(0))
        s_adj.append(element_coords(basis, VecLaurent(g.lo - 1, g.coeffs)))
    return np.column_stack(s), np.column_stack(s_adj)


def _laurent_stein(basis):
    s, s_adj = _laurent_shift_pair(basis)
    ds = defect_spaces(basis)
    p = np.eye(basis.n) - ds.d_basis @ ds.d_basis.conj().T
    n = basis.n
    cols = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=np.complex128)
            e[i, j] = 1.0
            cols.append((p @ (e - s @ e @ s_adj) @ p).reshape(-1))
    return np.column_stack(cols)


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_build_matches_laurent_products(basis):
    rng = np.random.default_rng(basis.n)
    m = basis.inner.m
    for lo, hi in ((-3, 3), (0, 2), (-m - 1, -m + 1), (m - 1, m + 1)):
        phi = random_symbol(basis.inner.d, lo, hi, rng)
        _assert_close(build(basis, phi).mat, _laurent_build(basis, phi))


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_semi_commutator_left_factor_matches_laurent_products(basis):
    rng = np.random.default_rng(basis.n + 100)
    d = basis.inner.d
    phi = random_symbol(d, 0, 3, rng)
    want = np.column_stack(
        [element_coords(basis, multiply(phi, VecLaurent.constant(basis.q[:d, j]))) for j in range(basis.n)]
    )
    _assert_close(semi_commutator_left_factor(basis, phi), want)


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_s_theta_matches_shift_and_backshift(basis):
    s, s_adj = s_theta(basis)
    want_s, want_adj = _laurent_shift_pair(basis)
    _assert_close(s, want_s)
    _assert_close(s_adj, want_adj)


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_symbol_pair_map_matches_per_element_build(basis):
    elements = SymbolSpaceBasis(basis).elements
    cols = [build(basis, el).mat.reshape(-1) for el in elements]
    cols += [build(basis, boundary_adjoint(el)).mat.reshape(-1) for el in elements]
    _assert_close(symbol_pair_map(basis), np.column_stack(cols))


@pytest.mark.parametrize("basis", SPACES, ids=IDS)
def test_stein_constraint_matches_the_entrywise_loop(basis):
    assert basis.n <= 12  # the loop reference is n^2 products of n x n matrices
    _assert_close(stein_constraint(basis), _laurent_stein(basis))


def test_operator_data_is_computed_once_per_basis():
    basis = ModelSpaceBasis(fixture("FIX5"))
    s, s_adj = s_theta(basis)
    ds = defect_spaces(basis)
    j, jt = j_operators(basis)
    again_s, again_adj = s_theta(basis)
    assert again_s is s and again_adj is s_adj
    assert defect_spaces(basis) is ds
    assert all(a is b for a, b in zip(j_operators(basis), (j, jt)))
    for a in (s, s_adj, ds.d_basis, ds.dt_frame, ds.d_pinv, ds.gram_vectors, j, jt):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, 0] = 1.0
    fresh = ModelSpaceBasis(basis.inner)
    fresh_s, _ = s_theta(fresh)
    fresh_ds = defect_spaces(fresh)
    assert fresh_s is not s and fresh_ds is not ds
    np.testing.assert_array_equal(fresh_s, s)
    np.testing.assert_array_equal(fresh_ds.d_basis, ds.d_basis)
