"""Shared dense linear algebra helpers, the package's tolerances and its residual gate.

Everything here is a thin, opinionated wrapper around numpy's SVD/lstsq
machinery: one rank rule, one phase convention for orthonormal columns,
and the Frobenius norm, finite at every finite scale and equal bit for
bit to numpy's, used consistently by the rest of the package.  The
hot helpers do no more per call than their result needs: at the sizes the
package decides on most (n up to a few dozen) a call costs its numpy
dispatch, not its flops.  `nullspace` and
`solve_min_norm` have no caller in the package; they stay for code that
looks them up by name.  Every threshold is one of the named constants
below, which no caller can set.  Every identity check hands its residual
and its bound (INNER_TOL, m*d*TRACE_TOL, DET_TOL, INPUT_TOL, CHECK_TOL, or
REL or REBUILD_TOL times a norm) to the one gate, `require_small`, which
refuses a residual above the bound, NaN or infinite.  Data handed out
for reading alone is made read-only by `frozen`, the package's one freeze.
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
PHASE_TIE = 1e-8  # an entry within PHASE_TIE (relative) of its column's largest magnitude ties with it for the phase pivot
MAX_NORM = 1e300  # largest Frobenius norm of an operator or symbol the CLI reads: with m <= 2048 the bracket
# end m ||P Delta P|| <= 2m ||A|| and the zero-test bound sqrt(2m - 1) ||E|| <= 64 ||E|| stay far below 1.8e308;
# op recover's pair, read through the defect frame's pseudo-inverse, is not bounded by ||A|| alone and has the rest


def require_finite(a: np.ndarray, message: str) -> np.ndarray:
    """Return `a` unchanged, or raise ValueError(message) if an entry is NaN or
    infinite.  The finite entries are counted (`np.count_nonzero`, one C
    call) rather than reduced with `.all()`, which goes through numpy's
    Python-level wrappers on every array the package checks."""
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise ValueError(message)
    return a


def frozen(*arrays) -> None:
    """Make each array read-only: the package's one way to hand out data no caller may write."""
    for a in arrays:
        a.setflags(write=False)


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
    """Frobenius norm, bit for bit `np.linalg.norm(a)` wherever that is
    finite and normal, and safe for every finite scale.

    It takes numpy's own sum, the two real dots of the real and imaginary
    parts of `a` raveled in memory order, with `np.vdot`, which sets no
    floating-point warning, so no `np.errstate` context is entered and no
    `np.linalg.norm` dispatched.  The squares overflow above about 1e154
    and underflow below 1e-154, so a result outside (1e-150, 1e150) is
    taken again on the magnitudes rescaled by the largest one (real
    division: a complex division by a subnormal scalar overflows forming
    its reciprocal); a zero result from an array with no non-zero entry
    is returned at once.  NaN gives nan and an infinite entry inf."""
    x = np.asarray(a).ravel(order="K")
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        nrm = math.sqrt(np.vdot(re, re) + np.vdot(im, im))
    else:
        x = x.astype(float, copy=False)  # as np.linalg.norm reads an integer array
        nrm = math.sqrt(np.vdot(x, x))
    if 1e-150 < nrm < 1e150 or (nrm == 0.0 and not np.count_nonzero(x)):
        return nrm
    big = float(np.abs(a).max(initial=0.0))
    if big == 0.0 or not np.isfinite(big):
        return big
    return big * float(np.linalg.norm(np.abs(a) / big))


def column_norms(a: np.ndarray) -> np.ndarray:
    """numpy's norm of each column of a 2-d array; if a square leaves the normal range,
    the non-zero columns outside (1e-150, 1e150) are taken again by `frobenius`."""
    try:
        with np.errstate(all="raise"):
            return np.linalg.norm(a, axis=0)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            nrm = np.linalg.norm(a, axis=0)
    for j in np.flatnonzero(~((1e-150 < nrm) & (nrm < 1e150)) & ((nrm != 0) | a.any(axis=0))):
        nrm[j] = frobenius(a[:, j])
    return nrm


def rank(a) -> int:
    """Numerical rank: count singular values above the relative cut of
    `rank_of_singular_values`, anchored at the largest singular value."""
    a = as_cmatrix(a)
    if a.size == 0:
        return 0
    return rank_of_singular_values(np.linalg.svd(a, compute_uv=False), a.shape)


def rank_of_singular_values(s: np.ndarray, shape) -> int:
    """The one rank rule: the number of singular values `s` (descending) of
    a matrix of `shape` above RANK_CUT * s[0] * max(shape)."""
    return int(np.count_nonzero(s > RANK_CUT * (s[0] if s.size else 0.0) * max(shape)))


def fix_column_phases(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its pivot is real positive: the first entry
    whose magnitude is within PHASE_TIE of the column's largest.

    Makes SVD/Gram-Schmidt output reproducible up to the underlying
    factorization.  The pivot is near the column's largest entry, never an
    entry that rounding can make or unmake, and a tie, exact or within
    PHASE_TIE, goes to the first entry by position: two entries of equal
    magnitude in exact arithmetic, such as those of (1, -1) / sqrt 2, are
    not decided by their last bits, which another BLAS could round the
    other way.  Columns with no non-zero entry are left alone.  One pass
    over the whole matrix.
    """
    q = np.array(q, dtype=np.complex128, copy=True)
    if q.size:
        mags = np.abs(q)
        rows = (mags >= (1.0 - PHASE_TIE) * mags.max(axis=0)).argmax(axis=0)
        pivots = q[rows, np.arange(q.shape[1])]
        cols = np.flatnonzero(pivots)
        q[:, cols] *= np.conj(pivots[cols]) / np.abs(pivots[cols])
    return q


def nullspace(a) -> np.ndarray:
    """Orthonormal basis of the kernel, via SVD, past the rank cut of `rank`."""
    a = as_cmatrix(a)
    if a.size == 0:
        return np.eye(a.shape[1], dtype=np.complex128)
    _, s, vh = np.linalg.svd(a)
    return fix_column_phases(vh[rank_of_singular_values(s, a.shape):].conj().T)


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
