"""Run-time checks the kernels and the conjugation no longer make, kept as test oracles.

`kernel` and `tilde_kernel` once measured the window they return against
the model space, ||L* k|| <= CHECK_TOL (1 + ||x||), after `kernel_window`
and `tilde_kernel_window` had checked the truncation tail and the division
remainder; a window whose tail vanishes is the kernel itself, so the
second check followed from the first.  `kernel_memberships` gives that
residual with its bound.  `conjugation_matrix` once measured its images W
against the model space (energy at negative frequencies and L* W) and
M*M = I, both implied for a gamma-symmetric Theta (Garcia-Putinar: C is
an antiunitary involution of K_Theta); `conjugation_residuals` gives
them, with the gamma-symmetry precondition and M = M^T that it keeps,
and makes no check.  `turned` moves a gamma-symmetric Theta off
gamma-symmetry by a unitary near I, where the precondition is what
refuses.
"""

import numpy as np

from mttokit.laurent import MatLaurent
from mttokit.model_operator import gamma_symmetric_residual
from mttokit.model_space import InnerFunction, kernel_window, off_space, tilde_kernel_window
from mttokit.numerics import CHECK_TOL, column_norms, frobenius

from product_oracles import einsum_convolve
from test_conditioning_family import turn


def kernel_memberships(inner, lam, x):
    """(residual, bound) of the membership check `kernel` and then
    `tilde_kernel` made: ||L* k|| of the window against CHECK_TOL (1 + ||x||)."""
    bound = CHECK_TOL * (1.0 + frobenius(np.asarray(x)))
    return [(float(off_space(inner, window(inner, lam, x)[0])[0]), bound)
            for window in (kernel_window, tilde_kernel_window)]


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
