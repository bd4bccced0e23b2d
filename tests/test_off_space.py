"""The window projector lives only inside the basis build.

`InnerFunction` reads n off Theta's blocks and `ModelSpaceBasis` forms
P = I - L L* only to run Gram-Schmidt on it, and lets it go; window
membership is measured from Theta's blocks (`model_space.off_space`).
So no array a space keeps is as large as one md x md matrix: the largest
are Theta's blocks and the md x n basis Q.  A space rebuilt from the same
Theta gives the same bytes on every path that checks an element or an
operator against the model space.
"""

import numpy as np
import pytest

from mttokit.model_operator import conjugation_matrix
from mttokit.model_space import ModelSpaceBasis, kernel, off_space, tilde_kernel
from mttokit.mtto import build, is_mtto, recover_symbol
from mttokit.randgen import random_gamma_symmetric_triple, random_inner


def _space():
    gamma, inner, phi = random_gamma_symmetric_triple(3, 3, np.random.default_rng(4))
    return gamma, ModelSpaceBasis(inner), phi


def _results(gamma, basis, phi):
    a = build(basis, phi)
    decision = is_mtto(basis, a)
    rec = recover_symbol(basis, a)
    out = [conjugation_matrix(basis, gamma), a.mat, np.array([decision.verdict, decision.residual, decision.tol])]
    out += [rec.psi1.coeffs, rec.psi2.coeffs, np.array(rec.residual)]
    for lam in (0.0, 0.3 - 0.4j):
        for x in np.eye(3):
            out += [kernel(basis, lam, x).coeffs, tilde_kernel(basis, lam, x).coeffs]
    return out


def _array_sizes(obj, seen):
    """Entry counts of the arrays reachable from obj through attributes,
    dicts, lists and tuples."""
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj.size]
    if isinstance(obj, dict):
        items = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
    elif hasattr(obj, "__dict__"):
        items = list(vars(obj).values())
    else:
        return []
    return [size for item in items for size in _array_sizes(item, seen)]


def test_a_space_keeps_no_window_sized_matrix():
    gamma, basis, phi = _space()
    inner = basis.inner
    m, d, n = inner.m, inner.d, inner.n
    assert n < m * d  # an md x md array would be larger than the bound
    bound = max((m + 1) * d * d, m * d * n)
    sizes = _array_sizes([inner, basis], set())
    assert m * d * n in sizes and max(sizes) <= bound
    _results(gamma, basis, phi)  # fills the operator cache
    assert basis.cache and max(_array_sizes([inner, basis], set())) <= bound


def test_a_rebuilt_space_gives_the_same_bytes():
    gamma, clean, phi = _space()
    _, rebuilt, _ = _space()
    assert np.array_equal(rebuilt.q, clean.q)
    got, want = _results(gamma, rebuilt, phi), _results(gamma, clean, phi)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_membership_is_measured_at_every_finite_scale(scale):
    """Each column's ||L* f|| is taken by frobenius's rescaling rule: numpy's
    sum of squares overflows at 1e200, which refused every kernel there, and
    underflows to 0 at 1e-200."""
    basis = ModelSpaceBasis(random_inner(3, 3, np.random.default_rng(4)))
    w = np.random.default_rng(5).standard_normal((basis.inner.m * basis.inner.d, 4))
    want = off_space(basis.inner, w)
    assert want.min() > 0.1  # these columns lie outside the space
    np.testing.assert_allclose(off_space(basis.inner, scale * w), scale * want, rtol=1e-14, atol=0)
    x = np.array([1.0, -1.0, 0.3])
    for f in (kernel, tilde_kernel):
        k = f(basis, 0.3 - 0.4j, scale * x)
        np.testing.assert_allclose(k.coeffs, scale * f(basis, 0.3 - 0.4j, x).coeffs, rtol=1e-13, atol=0)
