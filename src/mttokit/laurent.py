"""Matrix- and vector-valued Laurent polynomials on the unit circle.

A value F with support [lo, hi] is stored as the dense block list
[F_lo, ..., F_hi]; all algebra happens on coefficients, never through
sampling.  Support endpoints are explicit: construction trims blocks that
are exactly zero but nothing is ever truncated by tolerance behind the
caller's back.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .numerics import REL, frobenius, require_finite


def _validate_coeffs(coeffs, block_ndim: int) -> np.ndarray:
    a = np.asarray(coeffs, dtype=np.complex128)
    if a.ndim != block_ndim + 1:
        raise ValueError(f"expected {block_ndim + 1}-d coefficient array, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("need at least one coefficient block")
    return require_finite(a, "coefficients must be finite")


def _trim(lo: int, coeffs: np.ndarray):
    """Drop exactly-zero edge blocks; canonical zero sits at frequency 0."""
    if not (coeffs[0].any() and coeffs[-1].any()):
        nz = np.flatnonzero(coeffs.reshape(coeffs.shape[0], -1).any(axis=1))
        if nz.size == 0:
            return 0, np.zeros((1,) + coeffs.shape[1:], dtype=np.complex128)
        lo, coeffs = lo + int(nz[0]), coeffs[nz[0] : nz[-1] + 1]  # lo stays a Python int for JSON
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

    def shift(self, k: int):
        """Multiply by z**k (frequency shift)."""
        return type(self)(self.lo + k, self.coeffs)

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

    @classmethod
    def identity(cls, dim: int) -> "MatLaurent":
        return cls.constant(np.eye(dim))


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


def convolve(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Block convolution of coefficient arrays: block l of the result is the
    sum over i + k = l of f[i] g[k].  f has shape (p, d, d) and g shape
    (q, d) or (q, d, c), so the c columns of g are convolved at once."""
    nf, ng = f.shape[0], g.shape[0]
    prods = np.einsum("iab,kb...->ika...", f, g)  # prods[i, k] = F_i G_k
    out = np.zeros((nf + ng - 1,) + g.shape[1:], dtype=np.complex128)
    for i in range(nf):  # in order of i: the summation order fixes the result's bytes
        out[i : i + ng] += prods[i]
    return out


def reversed_adjoint(coeffs: np.ndarray) -> np.ndarray:
    """Coefficient blocks of F(z)* from those of F: reversed, each block adjointed."""
    return np.conj(np.transpose(coeffs[::-1], (0, 2, 1)))


def boundary_adjoint(f: MatLaurent) -> MatLaurent:
    """Pointwise adjoint on the circle: F(z)* has coefficient (F_{-k})* at k."""
    return MatLaurent(-f.hi, reversed_adjoint(f.coeffs))


def tilde(f: MatLaurent) -> MatLaurent:
    """F~(z) = F(conj(z))*: every coefficient is replaced by its adjoint."""
    return MatLaurent(f.lo, np.conj(np.transpose(f.coeffs, (0, 2, 1))))


def evaluate(f, z: complex) -> np.ndarray:
    """Evaluate at a point.  z = 0 needs a nonnegative support."""
    z = complex(z)
    shape = f.coeffs.shape[1:]
    if z == 0:
        if f.lo < 0:
            raise ZeroDivisionError("cannot evaluate negative frequencies at z = 0")
        return f.coeff(0).copy()
    # split into Horner evaluations in z (analytic part) and 1/z (the rest)
    out = np.zeros(shape, dtype=np.complex128)
    if f.hi >= 0:
        acc = np.zeros(shape, dtype=np.complex128)
        for k in range(f.hi, max(f.lo, 0) - 1, -1):
            acc = acc * z + f.coeff(k)
        out += acc * z ** max(f.lo, 0)
    if f.lo < 0:
        w = 1.0 / z
        acc = np.zeros(shape, dtype=np.complex128)
        for k in range(f.lo, min(f.hi, -1) + 1):
            acc = acc * w + f.coeff(k)
        out += acc * w
    return out


def inner_residual(theta: MatLaurent) -> float:
    """Largest deviation of the coefficient products sum_k A_k* A_{k+j}
    from delta_{j0} I, i.e. how far Theta*Theta is from the constant I;
    inf when that product or its norm overflows."""
    if theta.lo < 0:
        raise ValueError("inner test requires an analytic argument")
    with np.errstate(over="ignore", invalid="ignore"):
        dev = convolve(reversed_adjoint(theta.coeffs), theta.coeffs)  # Theta*Theta at -(hi-lo)..hi-lo
        if not np.isfinite(dev).all():  # a coefficient of Theta*Theta overflowed
            return float("inf")
        dev[theta.hi - theta.lo] -= np.eye(theta.dim)
        return max(float(np.linalg.norm(block)) for block in dev)


def purity_margin(theta: MatLaurent) -> float:
    """1 - ||Theta(0)|| in operator norm; positive means pure."""
    if theta.lo < 0:
        raise ValueError("purity is only defined for analytic arguments")
    return 1.0 - float(np.linalg.norm(theta.coeff(0), 2))


def is_pure(theta: MatLaurent) -> bool:
    """Strict contraction at the origin, with a numerical safety margin."""
    return purity_margin(theta) > REL
