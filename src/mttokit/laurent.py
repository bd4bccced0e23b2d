"""Matrix- and vector-valued Laurent polynomials on the unit circle.

A value F with support [lo, hi] is stored as the dense block list
[F_lo, ..., F_hi]; all algebra happens on coefficients, never through
sampling.  Support endpoints are explicit: construction trims blocks that
are exactly zero but nothing is ever truncated by tolerance behind the
caller's back.  Every product of two coefficient arrays is one block
convolution, `convolve`: the block-Toeplitz matrix of one operand,
gathered through a cached lag index, times the other operand as one
matrix, so a product costs one BLAS call and no Python loop over blocks.
That lag index (`_lags`) is the package's one block-Toeplitz index: the
compression Q* T_Phi Q of `mtto` gathers T_Phi through it as well.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError
from .numerics import REL, frobenius, frozen, opnorm, require_finite


def _validate_coeffs(coeffs, block_ndim: int) -> np.ndarray:
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != block_ndim + 1:
        raise ValueError(f"expected {block_ndim + 1}-d coefficient array, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("need at least one coefficient block")
    return require_finite(a, "coefficients must be finite")


def _trim(lo: int, coeffs: np.ndarray):
    """Drop exactly-zero edge blocks; canonical zero sits at frequency 0.
    The edge test counts non-zero entries (`np.count_nonzero`, one C call
    per edge block) where `.any()` would go through numpy's Python-level
    reduction wrappers, and the first and last non-zero blocks are read off
    the flat indices of the non-zero entries; a block is zero under each
    exactly when every entry is 0 or -0 in both parts."""
    if not (np.count_nonzero(coeffs[0]) and np.count_nonzero(coeffs[-1])):
        nz = coeffs.reshape(-1).nonzero()[0]
        if nz.size == 0:
            return 0, np.zeros((1,) + coeffs.shape[1:], dtype=np.complex128)
        first, last = int(nz[0]) // coeffs[0].size, int(nz[-1]) // coeffs[0].size  # Python ints for JSON
        lo, coeffs = lo + first, coeffs[first : last + 1]
    return lo, np.ascontiguousarray(coeffs)


class _Laurent:
    """Support bookkeeping shared by the matrix and vector flavours."""

    _block_ndim = None  # set by subclasses

    def __init__(self, lo: int, coeffs):
        coeffs = _validate_coeffs(coeffs, self._block_ndim)
        self.lo, self.coeffs = _trim(int(lo), coeffs)

    @classmethod
    def constant(cls, block):
        return cls(0, np.asarray(block, dtype=np.complex128)[np.newaxis])

    @classmethod
    def zero(cls, dim: int):
        return cls(0, np.zeros((1,) + (dim,) * cls._block_ndim))

    @property
    def hi(self) -> int:
        return self.lo + self.coeffs.shape[0] - 1

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient block at frequency k (zero outside the support)."""
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        return np.zeros(self.coeffs.shape[1:], dtype=np.complex128)

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Coefficient blocks at frequencies lo..hi as one array (zero outside the support)."""
        out = np.zeros((hi - lo + 1,) + self.coeffs.shape[1:], dtype=np.complex128)
        a, b = max(lo, self.lo), min(hi, self.hi)
        if a <= b:
            out[a - lo : b - lo + 1] = self.coeffs[a - self.lo : b - self.lo + 1]
        return out

    def norm(self) -> float:
        return frobenius(self.coeffs)

    def _binop_coeffs(self, other, sign):
        if not isinstance(other, type(self)):
            return None
        if other.dim != self.dim:
            raise DimensionMismatchError(f"dimension mismatch: {self.dim} vs {other.dim}")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        out = np.zeros((hi - lo + 1,) + self.coeffs.shape[1:], dtype=np.complex128)
        out[self.lo - lo : self.hi - lo + 1] = self.coeffs
        out[other.lo - lo : other.hi - lo + 1] += sign * other.coeffs
        return type(self)(lo, out)

    def __add__(self, other):
        out = self._binop_coeffs(other, 1)
        return NotImplemented if out is None else out

    def __sub__(self, other):
        out = self._binop_coeffs(other, -1)
        return NotImplemented if out is None else out

    def __neg__(self):
        return type(self)(self.lo, -self.coeffs)

    def __mul__(self, scalar):
        if not np.isscalar(scalar):
            return NotImplemented
        return type(self)(self.lo, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, support=[{self.lo},{self.hi}])"


class MatLaurent(_Laurent):
    """Laurent polynomial with d x d matrix coefficients."""

    _block_ndim = 2

    def __init__(self, lo: int, coeffs):
        super().__init__(lo, coeffs)
        if self.coeffs.shape[1] != self.coeffs.shape[2]:
            raise ValueError("matrix coefficients must be square")


class VecLaurent(_Laurent):
    """Laurent polynomial with vectors in C^d as coefficients."""

    _block_ndim = 1


def multiply(f: MatLaurent, g):
    """Pointwise product F(z) G(z) by block convolution.

    g may be matrix- or vector-valued; the result has the same flavour.
    """
    if not isinstance(f, MatLaurent):
        raise TypeError("left factor must be a MatLaurent")
    if not isinstance(g, (MatLaurent, VecLaurent)):
        raise TypeError("right factor must be a MatLaurent or VecLaurent")
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")
    return type(g)(f.lo + g.lo, convolve(f.coeffs, g.coeffs))


# np.dot under np.errstate: one BLAS product that sets no floating-point
# warning; an overflow leaves inf or nan for the caller's finiteness check
_quiet_dot = np.errstate(over="ignore", invalid="ignore")(np.dot)


@functools.lru_cache(maxsize=64)
def _lags(p: int, q: int) -> np.ndarray:
    """The read-only lag index of a block convolution of p blocks by q:
    entry [l, k] is l - k where 0 <= l - k < p, and p (a zero block)
    elsewhere, for l in 0..p+q-2.  Row m - 1 + k of `_lags(2m - 1, m)`
    holds k - j + m - 1 in column j, so its rows m-1..2m-2 index the m x m
    block Toeplitz T that `mtto._compress_toeplitz` gathers.  Built once
    per shape; the 64 shapes used last are kept."""
    lag = np.subtract.outer(np.arange(p + q - 1), np.arange(q))
    lag[(lag < 0) | (lag >= p)] = p
    frozen(lag)
    return lag


def convolve(f: np.ndarray, g: np.ndarray, first: int = 0) -> np.ndarray:
    """Block convolution of coefficient arrays: block l of the result is the
    sum over i + k = l of f[i] g[k].  f has shape (p, d, d) and g shape
    (q, d) or (q, d, c), so the c columns of g are convolved at once.
    Blocks first..p+q-2 are returned; a caller that reads only those forms
    no other block.

    It is one matrix product.  When q*d <= p*c the block-Toeplitz matrix of
    f (block (l, k) = f[l - k]) multiplies g stacked as a qd x c matrix;
    otherwise f laid side by side as a d x pd matrix multiplies the
    block-Toeplitz matrix of g (block (i, l) = g[l - i]).  Either matrix is
    gathered through the lag index of the shape (`_lags`) straight into the
    layout the product reads, so only the result is transposed after it.
    The rule takes the smaller matrix: with c >= d it holds at most
    (p+q-1)/max(p, q) < 2 times the p*q*d*c entries of all the products
    F_i G_k at once, and with a vector-valued g (c = 1) up to d times that.

    BLAS takes each sum in its own order, so a block agrees with the sum
    taken in order of i up to rounding: each is within sqrt(2)
    gamma_{K+2} (|F| * |G|) of the exact sum, K = min(p, q) d, and the two
    agree bit for bit where every product and partial sum is exact (a sum
    that is exactly zero is +0.0).  An overflow gives inf or nan, as it
    would elementwise, and sets no floating-point warning; callers that
    keep the result check it for finiteness."""
    p, q, d = f.shape[0], g.shape[0], f.shape[1]
    cols = g.reshape(q, d, -1)
    c, count = cols.shape[2], p + q - 1 - first
    if q * d <= p * c:  # rows (a, l), columns (k, b): f[l - k, a, b]
        tiles = np.zeros((d, p + 1, d), dtype=np.complex128)
        tiles[:, :p] = f.transpose(1, 0, 2)
        toeplitz = tiles.take(_lags(p, q)[first:], axis=1)
        out = _quiet_dot(toeplitz.reshape(d * count, q * d), cols.reshape(q * d, c))
    else:  # rows (b, i), columns (l, c): g[l - i, b, c]
        tiles = np.zeros((d, q + 1, c), dtype=np.complex128)
        tiles[:, :q] = cols.transpose(1, 0, 2)
        toeplitz = tiles.take(_lags(q, p)[first:].T, axis=1)
        out = _quiet_dot(f.transpose(1, 2, 0).reshape(d, d * p), toeplitz.reshape(d * p, count * c))
    out += 0.0  # a sum that is exactly zero becomes +0.0, as a sum taken from zero is; BLAS can leave -0.0
    return np.ascontiguousarray(out.reshape(d, count, c).transpose(1, 0, 2)).reshape((count,) + g.shape[1:])


def reversed_adjoint(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient blocks of F(z)* from those of F: reversed, each block adjointed."""
    return coeffs[::-1].transpose(0, 2, 1).conj()


def boundary_adjoint(f: MatLaurent) -> MatLaurent:
    """Pointwise adjoint on the circle: F(z)* has coefficient (F_{-k})* at k."""
    return MatLaurent(-f.hi, reversed_adjoint(f.coeffs))


def evaluate(f, z: complex) -> np.ndarray:
    """Value at a point, matrix or vector: the powers z^lo, ..., z^hi times
    the coefficient blocks, one product.  At z = 0 it is block 0 exactly,
    and a negative support is refused there."""
    z = complex(z)
    if z == 0:
        if f.lo < 0:
            raise ZeroDivisionError("cannot evaluate negative frequencies at z = 0")
        return f.coeff(0).copy()
    powers = z ** np.arange(f.lo, f.hi + 1)
    return (powers @ f.coeffs.reshape(len(powers), -1)).reshape(f.coeffs.shape[1:])


def inner_residual(theta: MatLaurent) -> float:
    """Largest deviation of the coefficient products sum_k A_k* A_{k+j}
    from delta_{j0} I, i.e. how far Theta*Theta is from the constant I;
    inf when that product or its norm overflows.  Theta*Theta is
    self-adjoint on the circle, so its block at -j is the adjoint of its
    block at j and has the same norm: only the lags j >= 0 are formed
    (`convolve`'s `first`).  Their norms are one `np.linalg.norm` over the
    blocks' rows, under the same `errstate` as the product: an overflowing
    block reads inf, and a nan (an overflow of opposite signs) is read as
    inf too."""
    if theta.lo < 0:
        raise ValueError("inner test requires an analytic argument")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = convolve(reversed_adjoint(theta.coeffs), theta.coeffs, theta.hi - theta.lo)  # lags 0..hi-lo
        dev[0] -= np.eye(theta.dim)
        worst = float(np.linalg.norm(dev.reshape(len(dev), -1), axis=1).max())
    return worst if np.isfinite(worst) else float("inf")


def purity_margin(theta: MatLaurent) -> float:
    """1 - ||Theta(0)|| in operator norm; positive means pure."""
    if theta.lo < 0:
        raise ValueError("purity is only defined for analytic arguments")
    return 1.0 - opnorm(theta.coeff(0))


def is_pure(theta: MatLaurent) -> bool:
    """Strict contraction at the origin, with a numerical safety margin."""
    return purity_margin(theta) > REL
