"""Property tests of the membership witness and the recovered symbol pair
on random members: symbols of random degree range and scale, compressed
to the fixtures and to seeded random model spaces.  Also the Laurent
algebra the division by Theta rests on, the zero-symbol pair it
recovers on random pure spaces, and the class dimension against its SVD
counts."""

from unittest.mock import patch

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mttokit.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from mttokit.laurent import boundary_adjoint, multiply  # noqa: E402
from mttokit.model_operator import defect_spaces, s_theta  # noqa: E402
from mttokit.model_space import ModelSpaceBasis  # noqa: E402
from mttokit.mtto import (  # noqa: E402
    build,
    is_mtto,
    membership_witness,
    mtto_dimension,
    recover_symbol,
    zero_symbol_decompose,
)
from mttokit.numerics import opnorm  # noqa: E402
from mttokit import randgen  # noqa: E402
from mttokit.randgen import random_inner, random_symbol  # noqa: E402
from mttokit.serialize import SCHEMA_VERSION, json_to_mat_laurent, laurent_to_json  # noqa: E402

from dimension_oracles import svd_counts  # noqa: E402
from division_oracles import analytic_split  # noqa: E402

SPACES = [ModelSpaceBasis(fixture(name)) for name in FIXTURE_NAMES] + [
    ModelSpaceBasis(random_inner(d, m, np.random.default_rng(60 + d))) for d, m in ((2, 3), (3, 2), (4, 2))
]

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def members(draw):
    """A space and the matrix of a random symbol compressed to it."""
    basis = draw(st.sampled_from(SPACES))
    lo, hi = draw(st.integers(-4, 0)), draw(st.integers(0, 4))
    scale = 10.0 ** draw(st.integers(-8, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return basis, build(basis, random_symbol(basis.inner.d, lo, hi, rng, scale)).mat


def _coords(basis, psi):
    m, d = basis.inner.m, basis.inner.d
    window = np.array([psi.coeff(k) for k in range(m)]).reshape(m * d, d)
    return basis.q.conj().T @ window


@PROPERTY
@given(members())
def test_witness_splits_both_defect_identities(member):
    basis, a = member
    s, s_adj = s_theta(basis)
    ds = defect_spaces(basis)
    assert is_mtto(basis, a).verdict
    for w, delta, k in (
        (membership_witness(basis, a), a - s.mat @ a @ s_adj.mat, ds.d_frame),
        (membership_witness(basis, a, starred=True), a - s_adj.mat @ a @ s.mat, ds.dt_frame),
    ):
        assert w.x.shape == w.y.shape == (basis.n, basis.inner.d)
        assert opnorm(delta - w.x @ k.conj().T - k @ w.y.conj().T) <= 1e-12 * opnorm(a)
        assert opnorm(k.conj().T @ w.x) <= 1e-12 * opnorm(a)  # X is taken off the span of K


@PROPERTY
@given(members())
def test_recovered_pair_is_gauge_minimal(member):
    basis, a = member
    rec = recover_symbol(basis, a)
    assert rec.residual <= 1e-10 * opnorm(a)
    k0 = defect_spaces(basis).d_frame
    x, y = _coords(basis, rec.psi1), _coords(basis, rec.psi2)
    assert opnorm(k0.conj().T @ x - y.conj().T @ k0) <= 1e-12 * opnorm(a)


@st.composite
def laurents(draw, count=1):
    """`count` matrix Laurent polynomials of one dimension, each with its
    own random support and scale."""
    d = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = []
    for _ in range(count):
        lo = draw(st.integers(-4, 4))
        hi = lo + draw(st.integers(0, 4))
        out.append(random_symbol(d, lo, hi, rng, 10.0 ** draw(st.integers(-6, 6))))
    return out


def _same(f, g):
    return f.lo == g.lo and np.array_equal(f.coeffs, g.coeffs)


@PROPERTY
@given(laurents(3))
def test_multiply_is_associative(fgh):
    f, g, h = fgh
    gap = (multiply(multiply(f, g), h) - multiply(f, multiply(g, h))).norm()
    assert gap <= 1e-12 * f.norm() * g.norm() * h.norm()


@PROPERTY
@given(laurents(2))
def test_boundary_adjoint_is_an_involution_that_reverses_products(fg):
    f, g = fg
    assert _same(boundary_adjoint(boundary_adjoint(f)), f)
    gap = (boundary_adjoint(multiply(f, g)) - multiply(boundary_adjoint(g), boundary_adjoint(f))).norm()
    assert gap <= 1e-12 * f.norm() * g.norm()


@PROPERTY
@given(laurents(1))
def test_analytic_split_recomposes(fs):
    (f,) = fs
    plus, star = analytic_split(f)
    assert plus.lo >= 0 and (star.is_zero() or star.lo >= 1)
    assert _same(plus + boundary_adjoint(star), f)


@PROPERTY
@given(laurents(1))
def test_laurent_json_round_trip(fs):
    (f,) = fs
    doc = dict(laurent_to_json(f), schema_version=SCHEMA_VERSION)
    assert _same(json_to_mat_laurent(doc), f)


@st.composite
def zero_symbols(draw):
    """A random pure space and a generating pair (Psi1, Psi2) of analytic
    symbols with Theta Psi1 + (Theta Psi2)* inducing the zero operator."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with patch.object(randgen, "MIN_PURITY", 1e-3):
        basis = ModelSpaceBasis(random_inner(d, m, rng))
    scale = 10.0 ** draw(st.integers(-6, 6))
    psi1 = random_symbol(d, 0, draw(st.integers(0, 4)), rng, scale)
    psi2 = random_symbol(d, 0, draw(st.integers(0, 4)), rng, scale)
    return basis, psi1, psi2


@settings(max_examples=40, deadline=None, derandomize=True)
@given(zero_symbols())
def test_zero_symbol_decompose_returns_the_generating_pair(case):
    basis, psi1, psi2 = case
    theta = basis.inner.theta
    phi = multiply(theta, psi1) + boundary_adjoint(multiply(theta, psi2))
    result = zero_symbol_decompose(basis, phi)
    assert result.is_zero and result.residual <= 1e-11 * phi.norm()
    scale = np.hypot(psi1.norm(), psi2.norm())
    assert np.hypot((result.psi1 - psi1).norm(), (result.psi2 - psi2).norm()) <= 1e-10 * scale


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 7).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, 12 // d), st.integers(0, 2**32 - 1))))
def test_dimension_equals_both_svd_counts(shape):
    d, m, seed = shape
    basis = ModelSpaceBasis(random_inner(d, m, np.random.default_rng(seed)))
    report = mtto_dimension(basis)
    assert (report.dim, report.dim) == svd_counts(basis)
