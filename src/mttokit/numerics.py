"""Shared dense linear algebra helpers, the package's tolerances and its residual gate.

Everything here is a thin, opinionated wrapper around numpy's SVD/lstsq
machinery: one rank rule, one phase convention for orthonormal columns,
one block-Toeplitz assembly and the Frobenius norm, finite at every finite
scale, used consistently by the rest of the package.  `nullspace` and
`solve_min_norm` have no caller in the package; they stay for code that
looks them up by name.  Every threshold is one of the named constants
below, which no caller can set.  Every identity check hands its residual
and its bound (INNER_TOL, m*d*TRACE_TOL, DET_TOL, INPUT_TOL, CHECK_TOL, or
REL or REBUILD_TOL times a norm) to the one gate, `require_small`, which
refuses a residual above the bound, NaN or infinite.
"""

import math

import numpy as np

REL = 1e-9  # relative decision threshold: tol = REL * scale of the input; also the purity floor
RANK_CUT = 1e-10  # singular values up to RANK_CUT * sigma_max * max(shape) count as zero
INNER_TOL = 1e-10  # largest coefficient-unitarity residual of an inner function
TRACE_TOL = INNER_TOL  # the model-space projector's trace may miss an integer by m*d*TRACE_TOL
DET_TOL = 0.25  # det_degree's reading -m log|det Theta(e^(-1/m))| may miss an integer by DET_TOL
INPUT_TOL = 1e-10  # largest unitarity, projection or symmetry residual of a caller's matrices
CHECK_TOL = 1e-9  # largest residual, absolute or per unit of its scale, of an internal identity check
REBUILD_TOL = 1e-8  # largest residual per unit of the input's norm of a rebuild or a division by Theta
PHASE_CUT = 1e-8  # entries up to PHASE_CUT * max(1, column max) cannot carry the phase


def require_finite(a: np.ndarray, message: str) -> np.ndarray:
    """Return `a` unchanged, or raise ValueError(message) if an entry is NaN or infinite."""
    if not np.isfinite(a).all():
        raise ValueError(message)
    return a


def require_small(residual: float, bound: float, error: type[Exception], message: str) -> float:
    """Return `residual` if finite and <= bound, else raise error(message.format(residual=residual))."""
    if not (math.isfinite(residual) and residual <= bound):
        raise error(message.format(residual=residual))
    return residual


def as_cmatrix(entries) -> np.ndarray:
    """Coerce to a 2-d complex128 array and reject non-finite entries."""
    a = np.asarray(entries, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return require_finite(a, "matrix entries must be finite")


def opnorm(a: np.ndarray) -> float:
    """Spectral (largest singular value) norm."""
    a = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm, safe for every finite scale: numpy sums the squared
    entries, which overflow above about 1e154 and underflow below 1e-154,
    so a result outside (1e-150, 1e150) is taken again on the magnitudes
    rescaled by the largest one (real division: a complex division by a
    subnormal scalar overflows forming its reciprocal)."""
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(a))
    if 1e-150 < nrm < 1e150:
        return nrm
    big = float(np.abs(a).max(initial=0.0))
    if big == 0.0 or not np.isfinite(big):
        return big
    return big * float(np.linalg.norm(np.abs(a) / big))


def column_norms(a: np.ndarray) -> np.ndarray:
    """`frobenius` of each column of a 2-d array: numpy's norms, with only
    the columns outside (1e-150, 1e150) taken again by the rescaling rule."""
    with np.errstate(over="ignore"):
        nrm = np.linalg.norm(a, axis=0)
    for j in np.flatnonzero(~((1e-150 < nrm) & (nrm < 1e150))):
        nrm[j] = frobenius(a[:, j])
    return nrm


def rank(a, scale: float = 0.0) -> int:
    """Numerical rank: count singular values above the relative cut.

    The cut is anchored at the largest singular value, or at `scale` if
    that is larger; pass the natural scale of the data when the whole
    matrix may consist of roundoff noise."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    cut = RANK_CUT * max(s[0], scale) * max(a.shape)
    return int(np.sum(s > cut))


def fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant entry is real positive.

    Makes SVD/Gram-Schmidt output reproducible up to the underlying
    factorization; columns that are numerically zero are left alone.
    One pass over the whole matrix: the pivot of each column is its first
    entry above PHASE_CUT * max(1, column max).
    """
    q = np.array(q, dtype=np.complex128, copy=True)
    mags = np.abs(q)
    big = mags > PHASE_CUT * np.maximum(1.0, mags.max(axis=0, initial=0.0))
    cols = np.flatnonzero(big.any(axis=0))
    if cols.size:
        pivots = q[big[:, cols].argmax(axis=0), cols]
        q[:, cols] *= np.conj(pivots) / np.abs(pivots)
    return q


def nullspace(a, scale: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the kernel, via SVD.  `scale` anchors the
    rank cut exactly as in `rank`."""
    a = as_cmatrix(a)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(a)
    cut = RANK_CUT * max(s[0] if s.size else 0.0, scale) * max(a.shape)
    r = int(np.sum(s > cut))
    return fix_column_phases(vh[r:].conj().T)


def solve_min_norm(a, b):
    """Minimum-norm least-squares solution of a x = b.

    Returns (x, residual) where residual is the Frobenius norm of a x - b,
    recomputed explicitly (the lstsq residual output is unreliable for
    rank-deficient systems).
    """
    a = as_cmatrix(a)
    b_arr = np.asarray(b, dtype=np.complex128)
    b2 = b_arr.reshape(-1, 1) if b_arr.ndim == 1 else b_arr
    if b2.shape[0] != a.shape[0]:
        raise ValueError(f"shape mismatch: a is {a.shape}, b has {b2.shape[0]} rows")
    rcond = RANK_CUT * max(a.shape)
    x, _, _, _ = np.linalg.lstsq(a, b2, rcond=rcond)
    residual = float(np.linalg.norm(a @ x - b2))
    if b_arr.ndim == 1:
        x = x[:, 0]
    return x, residual


def block_toeplitz(tiles: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Matrix of rows x cols blocks whose (k, j) block is tiles[k - j + cols - 1].

    `tiles` holds the blocks at offsets 1 - cols, ..., rows - 1 in order;
    they are copied in unchanged."""
    r, c = tiles.shape[1:]
    offsets = np.subtract.outer(np.arange(rows), np.arange(cols)) + cols - 1
    return tiles[offsets].transpose(0, 2, 1, 3).reshape(rows * r, cols * c)

