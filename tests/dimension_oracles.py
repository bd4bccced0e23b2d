"""Brute-force matrices of the operator class, kept as test references.

`mtto_dimension` counts the class from measured ranks of n x n and n x d
data.  The two maps below count it by SVD instead: the symbol-pair map
(n^2 x 2nd, its rank) and the Stein constraint (n^2 x n^2, its nullity,
O(n^6)).  The recovery tests also use the pair map as the least-squares
reference for recover_symbol.
"""

import numpy as np

from mttokit.model_operator import defect_spaces, s_theta
from mttokit.numerics import block_toeplitz, rank


def symbol_pair_map(basis) -> np.ndarray:
    """Linear map (coefficients of Psi1, coefficients of the starred
    second slot) -> vec of the operator matrix, over the symbol-space
    basis whose element (slot, j) puts basis function j in column slot.

    With F[k, c, a] the window blocks of Q, the first half is the one
    contraction A_el[a, b] = sum over k, i, c of
    conj(F[k, c, a]) F[k - i, c, j] F[i, slot, b], and A_{el*} = A_el*
    gives the second."""
    d, m, n = basis.inner.d, basis.inner.m, basis.n
    f = basis.q.reshape(m, d, n)
    zero = np.zeros((d, n))
    shifted = block_toeplitz(lambda t: f[t] if t >= 0 else zero, m, m).reshape(m, d, m, n)
    first = np.einsum("kca,kcij,isb->absj", f.conj(), shifted, f, optimize=True)
    second = first.transpose(1, 0, 2, 3).conj()
    return np.hstack([first.reshape(n * n, d * n), second.reshape(n * n, d * n)])


def stein_constraint(basis) -> np.ndarray:
    """Matrix of X -> P (X - S X S*) P on row-major vec(X), with P the
    projector off the first defect space: kron(P, P^T) - kron(P S, (S* P)^T).
    Its kernel is the operator class."""
    s, s_adj = s_theta(basis)
    p = defect_spaces(basis).p_d_perp
    return np.kron(p, p.T) - np.kron(p @ s.mat, (s_adj.mat @ p).T)


def svd_counts(basis) -> tuple[int, int]:
    """Class dimension as the rank of the pair map and as the nullity of
    the Stein constraint."""
    n = basis.n
    return rank(symbol_pair_map(basis), scale=1.0), n * n - rank(stein_constraint(basis), scale=1.0)
