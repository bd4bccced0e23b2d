"""FIX3 and FIX5 in rational arithmetic.

Theta is multiplied out from the fixtures' Potapov factors with sympy
rationals, and everything the package measures in floating point is
counted again exactly on the m*d coefficient window:

- the projector P = I - L L* onto the model space (L the lower block
  Toeplitz matrix of Theta_0, ..., Theta_{m-1}) and n = rank P;
- the compressed shift as P Z P (Z the down-shift of the window): its
  rank, and S^m = 0;
- the class dimension as the rank of the map Phi -> P T_Phi P over the
  symbol frequencies -(m - 1)..m - 1, the only ones the window sees.

Each count is compared with `InnerFunction.n`, the float S of
`s_theta` and `mtto_dimension`.
"""

import numpy as np
import pytest

from mttokit.fixtures import fixture
from mttokit.model_operator import s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import mtto_dimension
from mttokit.numerics import rank

sympy = pytest.importorskip("sympy")

HALF = sympy.Rational(1, 2)
FACTORS = {  # the Potapov factors of `mttokit.fixtures`, with exact entries
    "FIX3": [sympy.diag(0, 1), sympy.eye(2)],
    "FIX5": [sympy.Matrix([[HALF, HALF], [HALF, HALF]]), sympy.diag(1, 0)],
}
EXPECTED = {"FIX3": (3, 1, 8), "FIX5": (2, 1, 4)}  # n, rank S, class dimension 2nd - d^2


def _theta_blocks(factors):
    """Theta_0, ..., Theta_m of (I - P_1 + z P_1) ... (I - P_m + z P_m)."""
    d = factors[0].shape[0]
    blocks = [sympy.eye(d)]
    for p in factors:
        low, high = sympy.eye(d) - p, p
        blocks = [
            (blocks[k] * low if k < len(blocks) else sympy.zeros(d)) + (blocks[k - 1] * high if k else sympy.zeros(d))
            for k in range(len(blocks) + 1)
        ]
    return blocks


def _window_matrix(m, d, block):
    """The md x md matrix whose block (k, j) is block(k - j), or zero when that is None."""
    out = sympy.zeros(m * d, m * d)
    for k in range(m):
        for j in range(m):
            b = block(k - j)
            if b is not None:
                out[k * d : (k + 1) * d, j * d : (j + 1) * d] = b
    return out


def _exact_counts(blocks):
    m, d = len(blocks) - 1, blocks[0].shape[0]
    lower = _window_matrix(m, d, lambda k: blocks[k] if k >= 0 else None)
    p = sympy.eye(m * d) - lower * lower.H
    assert p * p == p and p.H == p
    shift = p * _window_matrix(m, d, lambda k: sympy.eye(d) if k == 1 else None) * p
    assert shift**m == sympy.zeros(m * d, m * d)
    columns = []
    for k in range(1 - m, m):
        for a in range(d):
            for b in range(d):
                unit = sympy.zeros(d, d)
                unit[a, b] = 1
                columns.append(list(p * _window_matrix(m, d, lambda i: unit if i == k else None) * p))
    class_map = sympy.Matrix(columns).T  # column (k, a, b) is P T_Phi P for Phi = E_ab z^k
    return p, shift, (p.rank(), shift.rank(), class_map.rank())


@pytest.mark.parametrize("name", sorted(FACTORS))
def test_exact_counts_match_the_float_space(name):
    inner = fixture(name)
    blocks = _theta_blocks(FACTORS[name])
    exact = np.array([np.array(b, dtype=np.complex128) for b in blocks])
    assert exact.shape == inner.blocks.shape and np.abs(exact - inner.blocks).max() <= 1e-15
    p, shift, counts = _exact_counts(blocks)
    assert counts == EXPECTED[name]
    n, rank_s, dim = counts
    basis = ModelSpaceBasis(inner)
    assert inner.n == basis.n == n
    s, _ = s_theta(basis)
    assert rank(s.mat, scale=1.0) == rank_s
    assert np.abs(np.linalg.matrix_power(s.mat, inner.m)).max() <= 1e-14
    q = basis.q
    assert np.abs(q.conj().T @ np.array(shift, dtype=np.complex128) @ q - s.mat).max() <= 1e-14
    assert np.abs(np.array(p, dtype=np.complex128) @ q - q).max() <= 1e-14
    assert mtto_dimension(basis).dim == dim
