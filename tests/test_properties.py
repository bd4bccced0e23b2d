"""Property tests of the membership witness and the recovered symbol pair
on random members: symbols of random degree range and scale, compressed
to the fixtures and to seeded random model spaces."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mttokit.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from mttokit.model_operator import defect_spaces, s_theta  # noqa: E402
from mttokit.model_space import ModelSpaceBasis  # noqa: E402
from mttokit.mtto import build, is_mtto, recover_symbol  # noqa: E402
from mttokit.numerics import opnorm  # noqa: E402
from mttokit.randgen import random_inner, random_symbol  # noqa: E402

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
    decision = is_mtto(basis, a)
    assert decision.verdict
    for w, delta, k in (
        (decision.witness, a - s.mat @ a @ s_adj.mat, ds.d_frame),
        (decision.witness_tilde, a - s_adj.mat @ a @ s.mat, ds.dt_frame),
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
