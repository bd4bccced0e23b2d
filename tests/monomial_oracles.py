"""Model spaces of rotated monomials, where the operator class is explicit.

For Theta = W diag(z^m_1, ..., z^m_d) W* with W unitary and every m_i >= 1,
the model space is W applied to the direct sum of the K_{z^m_i}, with the
rotated monomials z^k W e_i (k < m_i) as an orthonormal basis M.  In M
coordinates an operator A_Phi has as (i, j) block the m_i x m_j Toeplitz
matrix of the (i, j) entries of Phi_{k - l}, and every such block matrix
is one.  With U = Q* M unitary, the class in basis coordinates is
U T U* for T block Toeplitz, so the Frobenius distance from A to the class
is the distance from U* A U to its average along the diagonals of each
block.  For d = 1 this is Sarason's fact that the truncated Toeplitz
operators on K_{z^n} are the n x n Toeplitz matrices.
"""

import numpy as np

from mttokit.laurent import MatLaurent
from mttokit.model_space import InnerFunction


def monomial_inner(w: np.ndarray, ms) -> InnerFunction:
    """Theta = W diag(z^m_1, ..., z^m_d) W*, coefficient by coefficient."""
    ms = np.asarray(ms)
    coeffs = [(w * (ms == k)) @ w.conj().T for k in range(int(ms.max()) + 1)]
    return InnerFunction(MatLaurent(0, np.array(coeffs)))


def monomial_frame(w: np.ndarray, ms) -> np.ndarray:
    """The basis M on the coefficient window: column (i, k), i-major, is
    W e_i placed in window block k."""
    d, m = w.shape[0], max(ms)
    cols = []
    for i, mi in enumerate(ms):
        for k in range(mi):
            col = np.zeros(m * d, dtype=np.complex128)
            col[k * d : (k + 1) * d] = w[:, i]
            cols.append(col)
    return np.array(cols).T


def block_toeplitz_part(t: np.ndarray, ms) -> np.ndarray:
    """Orthogonal projection onto the block matrices with Toeplitz
    m_i x m_j blocks: each block averaged along its diagonals."""
    out = np.empty_like(t)
    edges = np.concatenate([[0], np.cumsum(ms)])
    for i in range(len(ms)):
        for j in range(len(ms)):
            block = t[edges[i] : edges[i + 1], edges[j] : edges[j + 1]]
            p, q = block.shape
            diag = (np.subtract.outer(np.arange(p), np.arange(q)) + q - 1).ravel()
            sums = np.bincount(diag, weights=block.real.ravel(), minlength=p + q - 1) + 1j * np.bincount(
                diag, weights=block.imag.ravel(), minlength=p + q - 1
            )
            means = sums / np.bincount(diag, minlength=p + q - 1)
            out[edges[i] : edges[i + 1], edges[j] : edges[j + 1]] = means[diag].reshape(p, q)
    return out


def exact_distance(basis, w: np.ndarray, ms, a: np.ndarray) -> float:
    """Frobenius distance from A (basis coordinates) to the operator class."""
    u = basis.q.conj().T @ monomial_frame(w, ms)
    t = u.conj().T @ a @ u
    return float(np.linalg.norm(t - block_toeplitz_part(t, ms)))
