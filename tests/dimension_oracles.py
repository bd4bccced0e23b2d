"""Brute-force matrices of the operator class and of the symbol space,
kept as test references.

`mtto_dimension` reads the count 2nd - d^2 off n and d.  The two maps
below count the class by SVD instead: the symbol-pair map
(n^2 x 2nd, its rank) and the Stein constraint (n^2 x n^2, its nullity,
O(n^6)).  The recovery tests also use the pair map as the least-squares
reference for recover_symbol.  The symbol space (analytic matrix symbols
whose columns all lie in the model space) has an explicit basis and a
brute-force dimension count, and `hs_inner` pairs its elements.
`det_degree_by_fft` is the route `model_space.det_degree` took before it
read n off one interior point: the degree of det Theta by interpolation.
"""

import numpy as np

from mttokit.errors import DimensionMismatchError
from mttokit.laurent import MatLaurent
from mttokit.model_operator import defect_spaces, s_theta
from mttokit.numerics import RANK_CUT

from product_oracles import block_toeplitz

DET_CUT = 1e-8  # det_degree_by_fft: coefficients up to DET_CUT * max(1, largest) count as zero


def anchored_cut(s: np.ndarray, shape) -> int:
    """The rank rule of `numerics.rank_of_singular_values` with its cut
    anchored at max(s[0], 1), so that a matrix of roundoff noise alone has
    rank 0: the number of singular values `s` (descending) of a matrix of
    `shape` above RANK_CUT * max(s[0], 1) * max(shape)."""
    return int(np.sum(s > RANK_CUT * max(s[0] if s.size else 0.0, 1.0) * max(shape)))


def anchored_rank(a) -> int:
    """Numerical rank of a matrix by `anchored_cut`."""
    a = np.asarray(a, dtype=np.complex128)
    return anchored_cut(np.linalg.svd(a, compute_uv=False), a.shape) if a.size else 0


def det_degree_by_fft(theta: MatLaurent) -> int:
    """Degree of det Theta(z), by evaluation and interpolation.

    det Theta has degree at most m*d, so its values at N = m*d + 1 roots
    of unity determine it: one FFT of the coefficient blocks gives Theta
    there, one batched determinant gives det Theta, and one inverse FFT
    gives its coefficients.  For an inner Theta, |det Theta| = 1 on the
    circle, so nothing is amplified.  The degree is the index of the last
    coefficient larger than DET_CUT * max(1, largest coefficient).
    """
    if theta.lo < 0:
        raise ValueError("determinant degree needs an analytic argument")
    d, m = theta.dim, theta.hi
    blocks = np.zeros((m + 1, d, d), dtype=np.complex128)
    blocks[theta.lo :] = theta.coeffs
    total = np.fft.ifft(np.linalg.det(np.fft.fft(blocks, n=m * d + 1, axis=0)))
    mags = np.abs(total)
    big = np.flatnonzero(mags > DET_CUT * max(1.0, mags.max()))
    return int(big[-1]) if big.size else 0


def toeplitz_of(block, rows: int, cols: int) -> np.ndarray:
    """block_toeplitz with the block at each offset t given as block(t)."""
    return block_toeplitz(np.array([block(t) for t in range(1 - cols, rows)], dtype=np.complex128), rows, cols)


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
    shifted = toeplitz_of(lambda t: f[t] if t >= 0 else zero, m, m).reshape(m, d, m, n)
    first = np.einsum("kca,kcij,isb->absj", f.conj(), shifted, f, optimize=True)
    second = first.transpose(1, 0, 2, 3).conj()
    return np.hstack([first.reshape(n * n, d * n), second.reshape(n * n, d * n)])


def stein_constraint(basis) -> np.ndarray:
    """Matrix of X -> P (X - S X S*) P on row-major vec(X), with P the
    projector off the first defect space: kron(P, P^T) - kron(P S, (S* P)^T).
    Its kernel is the operator class."""
    s, s_adj = s_theta(basis)
    u = defect_spaces(basis).d_basis
    p = np.eye(basis.n) - u @ u.conj().T
    return np.kron(p, p.T) - np.kron(p @ s, (s_adj @ p).T)


def svd_counts(basis) -> tuple[int, int]:
    """Class dimension as the rank of the pair map and as the nullity of
    the Stein constraint."""
    n = basis.n
    return anchored_rank(symbol_pair_map(basis)), n * n - anchored_rank(stein_constraint(basis))


def hs_inner(f: MatLaurent, g: MatLaurent) -> complex:
    """Hilbert-Schmidt-valued L^2 pairing: sum of trace(G_k* F_k)."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")
    lo = max(f.lo, g.lo)
    hi = min(f.hi, g.hi)
    total = 0.0 + 0.0j
    for k in range(lo, hi + 1):
        total += np.trace(g.coeff(k).conj().T @ f.coeff(k))
    return complex(total)


class SymbolSpaceBasis:
    """Orthonormal basis of the analytic matrix symbols orthogonal to
    Theta H^2 of matrices: the functions whose columns all lie in the
    model space.  Elements place one model-space basis function in one
    column slot, so there are n*d of them."""

    def __init__(self, basis):
        self.basis = basis
        inner = basis.inner
        d, m, n = inner.d, inner.m, inner.n
        self.elements = []
        for slot in range(d):
            for j in range(n):
                coeffs = np.zeros((m, d, d), dtype=np.complex128)
                coeffs[:, :, slot] = basis.q[:, j].reshape(m, d)
                self.elements.append(MatLaurent(0, coeffs))

    def __len__(self):
        return len(self.elements)


def symbol_space_dim_bruteforce(basis) -> int:
    """Dimension of the symbol space found by brute force: nullity of the
    analytic-part constraint on matrix polynomials of degree < m."""
    theta, m, eye = basis.inner.theta, basis.inner.m, np.eye(basis.inner.d)
    c = toeplitz_of(lambda t: np.kron(theta.coeff(-t).conj().T, eye), m, m)
    return c.shape[1] - anchored_rank(c)
