"""The groups of a Potapov basis in rational arithmetic (sympy).

For Theta = U B_1 ... B_k with B_j = I - P_j + z P_j, `ModelSpaceBasis`
writes column group j as H_(j-1) V_j, H_(j-1) = U B_1 ... B_(j-1) and V_j
spanning ran P_j.  On FIX3, FIX5, a space with complex factors and one
with d = 4, the exact groups H_(j-1) P_j are fixed by the exact window
projector and mutually orthogonal, their ranks sum to n, and each float
group lies in its exact group within 1e-14.
"""

import numpy as np
import pytest

from mttokit.model_space import ModelSpaceBasis, make_inner_potapov

sympy = pytest.importorskip("sympy")


def _expand(a):
    return a.applyfunc(sympy.expand)


def _rational_factors(seed, d, ranks, gaussian):
    """Projections V (V* V)^-1 V* onto spans of small integer (or Gaussian
    integer) vectors, and U = (I - K)(I + K)^-1 for K skew-Hermitian."""
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        a = sympy.Matrix(rng.integers(-3, 4, size=(rows, cols)).tolist())
        return a + sympy.I * sympy.Matrix(rng.integers(-3, 4, size=(rows, cols)).tolist()) if gaussian else a

    factors = []
    for r in ranks:
        v = sympy.zeros(d, r)
        while v.rank() < r:
            v = draw(d, r)
        factors.append(_expand(v * (v.H * v).inv() * v.H))
    k = draw(d, d)
    return factors, _expand((sympy.eye(d) - (k - k.H)) * (sympy.eye(d) + (k - k.H)).inv())


EXACT = {  # (factors, U) of each space
    "FIX3": ([sympy.diag(0, 1), sympy.eye(2)], sympy.eye(2)),
    "FIX5": ([sympy.Matrix([[sympy.Rational(1, 2)] * 2] * 2), sympy.diag(1, 0)], sympy.eye(2)),
    "complex d=3": _rational_factors(5, 3, (1, 2, 2), True),
    "d=4": _rational_factors(3, 4, (2, 3, 1, 2), False),
}


def _exact_groups(factors, u):
    """The window columns of H_(j-1) P_j, one md x d matrix per factor, and
    the blocks of Theta = H_k, by the same recurrence in exact arithmetic."""
    k, d = len(factors), factors[0].shape[0]
    h, groups = [u], []
    for j, p in enumerate(factors):
        column = sympy.zeros(k * d, d)
        for i, block in enumerate(h):
            column[i * d : (i + 1) * d, :] = _expand(block * p)
        groups.append(column)
        h = [_expand((h[i] * (sympy.eye(d) - p) if i < len(h) else sympy.zeros(d))
                     + (h[i - 1] * p if i else sympy.zeros(d))) for i in range(len(h) + 1)]
    return groups, h


@pytest.mark.parametrize("name", sorted(EXACT))
def test_the_factor_groups_lie_in_the_exact_model_space(name):
    factors, u = EXACT[name]
    d = u.shape[0]
    groups, blocks = _exact_groups(factors, u)
    m = len(blocks) - 1
    assert m == len(factors) and blocks[-1] != sympy.zeros(d)  # no trimmed top block here
    lower = sympy.zeros(m * d, m * d)
    for r in range(m):
        for c in range(r + 1):
            lower[r * d : (r + 1) * d, c * d : (c + 1) * d] = blocks[r - c]
    p = _expand(sympy.eye(m * d) - lower * lower.H)  # the window projector onto K_Theta
    ranks = [f.rank() for f in factors]
    assert p.rank() == sum(ranks) and all(g.rank() == r for g, r in zip(groups, ranks))
    for i, g in enumerate(groups):
        assert _expand(p * g - g).is_zero_matrix, i  # inside K_Theta
        for later in groups[i + 1 :]:
            assert _expand(g.H * later).is_zero_matrix, i  # orthogonal to every other group

    inner = make_inner_potapov([np.array(f, dtype=np.complex128) for f in factors], np.array(u, dtype=np.complex128))
    q = ModelSpaceBasis(inner).q
    exact = [np.array(g, dtype=np.complex128) for g in groups]
    assert np.abs(np.array(p, dtype=np.complex128) @ q - q).max() <= 1e-14
    start = 0
    for j, r in enumerate(ranks):  # float group j is orthogonal to every exact group but its own
        for i, g in enumerate(exact):
            if i != j:
                assert np.abs(g.conj().T @ q[:, start : start + r]).max() <= 1e-14, (i, j)
        start += r
