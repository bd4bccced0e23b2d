"""Window membership is measured from Theta's blocks alone.

`model_space.off_space` takes ||L* f|| from the blocks of Theta, so the
projector that `InnerFunction` keeps to count n and build the basis is
read by nothing after construction.  A space whose cached projector is
zeroed must therefore give the same bytes as the clean one on every path
that checks an element or an operator against the model space.
"""

import numpy as np

from mttokit.model_operator import conjugation_matrix
from mttokit.model_space import ModelSpaceBasis, kernel, tilde_kernel
from mttokit.mtto import build, is_mtto, recover_symbol
from mttokit.randgen import random_gamma_symmetric_triple


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


def test_a_zeroed_projector_changes_no_result():
    gamma, clean, phi = _space()
    _, blind, _ = _space()
    blind.inner.projector = np.zeros_like(clean.inner.projector)
    assert np.array_equal(blind.q, clean.q)
    got, want = _results(gamma, blind, phi), _results(gamma, clean, phi)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)
