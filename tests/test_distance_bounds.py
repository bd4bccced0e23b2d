"""The membership residual certifies the Frobenius distance to the class.

With E the compression of A - S A S* off the first defect space, every
member B has ||E||_F <= 2 ||A - B||_F, and A - L^-1(E) is a member at
distance at most m ||E||_F, L(X) = X - S X S*; the starred identity works
the same way.  So is_mtto's distance_bounds = (residual / 2, m * residual)
hold the exact distance, and recover_symbol's rebuild, that member
A - L^-1(E), lies between the distance and the upper end.  Two exact
references check both: on rotated monomial spaces, averaging U* A U
along block diagonals (monomial_oracles); on the fixtures, projecting
onto the span of the operators of the unit symbols (membership_oracles).
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mttokit.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from mttokit.model_space import ModelSpaceBasis  # noqa: E402
from mttokit.mtto import build, is_mtto, mtto_dimension, recover_symbol  # noqa: E402
from mttokit.randgen import haar_unitary, random_non_member, random_symbol  # noqa: E402

from membership_oracles import class_distance, class_span  # noqa: E402
from monomial_oracles import exact_distance, monomial_inner  # noqa: E402

PERTURBATIONS = (1e-6, 1e-4, 1e-2, 1.0)


def _assert_bracketed(decision, dist, scale):
    """lo <= dist <= hi up to roundoff of the operator's scale."""
    lo, hi = decision.distance_bounds
    slack = 1e-12 * scale
    assert lo <= dist + slack and dist <= hi + slack, (lo, dist, hi)


def _assert_rebuild_bracketed(basis, a, dist, scale):
    """res / 2 <= dist <= rebuild residual <= m * res, each up to roundoff of
    the operator's scale: recover_symbol's rebuild is a member at most the
    bracket's upper end from A."""
    decision = is_mtto(basis, a)
    rec = recover_symbol(basis, a, tol=decision.residual)
    lo, hi = decision.distance_bounds
    slack = 1e-12 * scale
    assert lo <= dist + slack and dist <= rec.residual + slack, (lo, dist, rec.residual)
    assert rec.residual <= hi + slack, (rec.residual, hi)


def _unit_gaussian(n, rng):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / np.linalg.norm(g)


@st.composite
def monomial_cases(draw):
    """Up to four exponents 1 <= m_i <= 10, unequal ones included, so
    n = sum m_i <= 40; a seed for W and the member; the perturbation scale."""
    d = draw(st.integers(1, 4))
    ms = draw(st.lists(st.integers(1, 10), min_size=d, max_size=d))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ms, rng, draw(st.sampled_from(PERTURBATIONS))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(monomial_cases())
def test_bounds_hold_against_the_exact_distance_on_monomial_spaces(case):
    ms, rng, eps = case
    d = len(ms)
    w = haar_unitary(d, rng)
    basis = ModelSpaceBasis(monomial_inner(w, ms))
    assert basis.n == sum(ms) and basis.inner.m == max(ms)
    member = build(basis, random_symbol(d, -3, 3, rng)).mat
    scale = np.linalg.norm(member)
    assert exact_distance(basis, w, ms, member) <= 1e-12 * scale  # the oracle's class holds A_Phi
    a = member + eps * scale * _unit_gaussian(basis.n, rng)
    _assert_bracketed(is_mtto(basis, a), exact_distance(basis, w, ms, a), scale)
    _assert_rebuild_bracketed(basis, a, exact_distance(basis, w, ms, a), scale)
    if basis.n > d:
        b = random_non_member(basis, rng)
        _assert_bracketed(is_mtto(basis, b), exact_distance(basis, w, ms, b), 1.0)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_bounds_hold_against_the_class_span_on_the_fixtures(name):
    basis = ModelSpaceBasis(fixture(name))
    span = class_span(basis)
    assert span.shape[1] == mtto_dimension(basis).dim
    rng = np.random.default_rng(17)
    n, d = basis.n, basis.inner.d
    for _ in range(5):
        member = build(basis, random_symbol(d, -2, 2, rng)).mat
        scale = np.linalg.norm(member)
        for eps in PERTURBATIONS:
            a = member + eps * scale * _unit_gaussian(n, rng)
            _assert_bracketed(is_mtto(basis, a), class_distance(span, a), scale)
            _assert_rebuild_bracketed(basis, a, class_distance(span, a), scale)
        if n > d:
            b = random_non_member(basis, rng)
            _assert_bracketed(is_mtto(basis, b), class_distance(span, b), 1.0)
