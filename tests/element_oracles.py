"""Run-time checks the kernels and the conjugation no longer make, and the
routes they replaced, kept as test oracles.

`kernel` and `tilde_kernel` once measured the window they return against
the model space, ||L* k|| <= CHECK_TOL (1 + ||x||), after checking the
truncation tail and the division remainder; a window whose tail vanishes
is the kernel itself, so the second check followed from the first.
`kernel_memberships` gives that residual with its bound.  `kernel` once
formed 2m + 1 blocks of the kernel series, each a sum of powers of
conj(lam) times the blocks g_i of (I - Theta(z) Theta(lam)*) x, and read
blocks m..2m as its tail; `kernel_series` is that loop.  `kernel_element`,
`tilde_kernel_element` and `element_coords` are the element route the
kernels and `coords` had before they took and returned window arrays:
a `VecLaurent` out, and a `VecLaurent` in, read on its window 0..m-1.
`conjugation_matrix` once measured its images W against the model space
(energy at negative frequencies and L* W) and M*M = I, both implied for
a gamma-symmetric Theta (Garcia-Putinar: C is an antiunitary involution
of K_Theta); `conjugation_residuals` gives
them, with the gamma-symmetry precondition and M = M^T that it keeps,
and makes no check.  `turned` moves a gamma-symmetric Theta off
gamma-symmetry by a unitary near I, where the precondition is what
refuses.
"""

import numpy as np

from mttokit.laurent import MatLaurent, VecLaurent, evaluate
from mttokit.model_operator import gamma_symmetric_residual
from mttokit.model_space import InnerFunction, kernel, off_space, tilde_kernel
from mttokit.numerics import CHECK_TOL, column_norms, frobenius

from product_oracles import einsum_convolve
from test_conditioning_family import turn


def kernel_memberships(inner, lam, x):
    """(residual, bound) of the membership check `kernel` and then
    `tilde_kernel` made: ||L* k|| of the window against CHECK_TOL (1 + ||x||)."""
    bound = CHECK_TOL * (1.0 + frobenius(np.asarray(x)))
    return [(float(off_space(inner, window(inner, lam, x)[0])[0]), bound) for window in (kernel, tilde_kernel)]


def kernel_element(inner, lam, x) -> VecLaurent:
    """The kernel at lam applied to x in C^d as a VecLaurent."""
    return VecLaurent(0, kernel(inner, lam, x)[0])


def tilde_kernel_element(inner, lam, y) -> VecLaurent:
    """The difference-quotient kernel at lam applied to y in C^d as a VecLaurent."""
    return VecLaurent(0, tilde_kernel(inner, lam, y)[0])


def element_coords(basis, f: VecLaurent) -> np.ndarray:
    """Coordinates against the basis of the window of f, frequencies 0..m-1."""
    if f.dim != basis.inner.d:
        raise ValueError(f"dimension mismatch: {f.dim} vs {basis.inner.d}")
    return basis.coords(f.window(0, basis.inner.m - 1))


def kernel_series(inner, lam, x) -> np.ndarray:
    """Blocks 0..2m of the kernel series at lam applied to x (a vector or a
    d x c block): block k is the sum over i <= min(k, m) of
    conj(lam)^(k-i) g_i, accumulated in the order of i."""
    m = inner.m
    g = -(inner.blocks @ (evaluate(inner.theta, lam).conj().T @ x))  # (I - Theta(z) Theta(lam)*) x
    g[0] += x
    powers = (np.conj(lam) ** np.arange(2 * m + 1)).reshape((-1,) + (1,) * np.ndim(x))
    c = np.zeros((2 * m + 1,) + np.shape(x), dtype=np.complex128)
    for i in range(m + 1):
        c[i:] += powers[: 2 * m + 1 - i] * g[i]
    return c


def conjugation_residuals(basis, gamma) -> dict:
    """The residuals `conjugation_matrix` once read, with no check made:
    the gamma-symmetry of Theta, the largest distance of an image from the
    model space, ||M*M - I||_F and ||M - M^T||_F."""
    inner = basis.inner
    d, m, n = inner.d, inner.m, basis.n
    flipped = gamma.u @ np.conj(basis.q.reshape(m, d, n)[::-1])
    image = einsum_convolve(inner.blocks, flipped)  # block i sits at frequency i - m
    window = image[m:].reshape(m * d, n)
    negative = column_norms(image[:m].reshape(m * d, n))
    mat = basis.q.conj().T @ window
    return {
        "gamma": gamma_symmetric_residual(inner.theta, gamma),
        "membership": float(np.hypot(negative, off_space(inner, window)).max(initial=0.0)),
        "unitarity": frobenius(mat.conj().T @ mat - np.eye(n)),
        "symmetry": frobenius(mat - mat.T),
    }


def turned(inner, eps, rng) -> InnerFunction:
    """Theta W for the unitary W = exp(i eps H) of `test_conditioning_family.turn`:
    inner, pure and of the same model space as Theta, and off
    gamma-symmetry by about eps, given by its coefficients."""
    return InnerFunction(MatLaurent(0, inner.blocks @ turn(eps, rng, inner.d)))
