"""Computations made apart from mttokit, and the output checks built on them.

Nothing here imports mttokit.  A Laurent polynomial is a pair (lo, coeffs)
with coeffs[k] the d x d (or length-d) coefficient of z**(lo + k); objects
from mttokit that carry `.lo` and `.coeffs` are accepted as they are.

Every checker returns None when the output is right and a one-line reason
when it is not, so a failed request can say why.
"""

from __future__ import annotations

import numpy as np

# Two float64 routes to the same finite sum differ by roundoff of order
# 1e-15 relative; a 1e-6 relative change of an output must be caught.
ROUNDOFF = 1e-10
# Identities that mttokit itself accepts at 1e-8 (recovery, decomposition).
SOLVE = 1e-8


def laurent(obj):
    """(lo, coeffs) from a pair or from an object with .lo and .coeffs."""
    if isinstance(obj, tuple):
        return obj
    return int(obj.lo), np.asarray(obj.coeffs)


def coeff(f, k):
    lo, c = laurent(f)
    if lo <= k < lo + c.shape[0]:
        return c[k - lo]
    return np.zeros(c.shape[1:], dtype=np.complex128)


def convolve(f, g):
    """Coefficients of the product F(z) G(z), block by block."""
    flo, fc = laurent(f)
    glo, gc = laurent(g)
    out = np.zeros((fc.shape[0] + gc.shape[0] - 1,) + gc.shape[1:], dtype=np.complex128)
    for i in range(fc.shape[0]):
        for j in range(gc.shape[0]):
            out[i + j] += fc[i] @ gc[j]
    return flo + glo, out


def star(f):
    """Boundary adjoint: F*(z) has coefficient (F_{-k})^H at frequency k."""
    lo, c = laurent(f)
    hi = lo + c.shape[0] - 1
    return -hi, np.conj(np.transpose(c[::-1], (0, 2, 1)))


def add(f, g):
    flo, fc = laurent(f)
    glo, gc = laurent(g)
    lo = min(flo, glo)
    hi = max(flo + fc.shape[0], glo + gc.shape[0])
    out = np.zeros((hi - lo,) + fc.shape[1:], dtype=np.complex128)
    out[flo - lo : flo - lo + fc.shape[0]] += fc
    out[glo - lo : glo - lo + gc.shape[0]] += gc
    return lo, out


def norm(f):
    return float(np.linalg.norm(laurent(f)[1]))


def potapov_theta(left_unitary, projections):
    """Coefficients of U (I - P_1 + z P_1) ... (I - P_r + z P_r)."""
    d = left_unitary.shape[0]
    theta = (0, np.asarray(left_unitary, dtype=np.complex128)[np.newaxis])
    for p in projections:
        theta = convolve(theta, (0, np.stack([np.eye(d) - p, p])))
    return theta


def window_matrix(phi, d, m):
    """Block Toeplitz matrix T with T[k, j] = Phi_{k-j} on frequencies 0..m-1.

    Model-space functions have degree < m, so compressing multiplication by
    Phi to the model space with orthonormal basis columns Q is Q^H T Q."""
    t = np.zeros((m * d, m * d), dtype=np.complex128)
    for k in range(m):
        for j in range(m):
            t[k * d : (k + 1) * d, j * d : (j + 1) * d] = coeff(phi, k - j)
    return t


def compressed(q, phi, d, m):
    """Q^H T_Phi Q: the operator of the symbol Phi in the basis Q."""
    return q.conj().T @ window_matrix(phi, d, m) @ q


def analytic_part_matrix(theta, d, m):
    """C with C f = coefficients 0..m-1 of the analytic part of Theta* f,
    for f of degree < m; the model space is the kernel of C."""
    c = np.zeros((m * d, m * d), dtype=np.complex128)
    for k in range(m):
        for j in range(m):
            c[k * d : (k + 1) * d, j * d : (j + 1) * d] = coeff(theta, j - k).conj().T
    return c


def class_dimension_bruteforce(q, d, m, tol=1e-9):
    """Dimension of {Q^H T_Phi Q} over all Phi supported in [-(m-1), m-1]:
    the rank of the linear map from symbol coefficients to operators.
    Symbols outside that window act on degree-<m functions through the
    window only, so this is the whole operator class."""
    cols = []
    for k in range(-(m - 1), m):
        for a in range(d):
            for b in range(d):
                blk = np.zeros((1, d, d), dtype=np.complex128)
                blk[0, a, b] = 1.0
                cols.append(compressed(q, (k, blk), d, m).reshape(-1))
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    return int(np.sum(s > tol * max(1.0, s[0])))


def class_dimension(n, d):
    """2nd - d^2.  S is nilpotent, so X -> X - S X S* is invertible, and
    the class is cut out by (n - d)^2 independent conditions; for d = 1
    this is Sarason's 2n - 1."""
    return 2 * n * d - d * d


def _rel(diff, ref):
    return float(np.linalg.norm(diff)) / (1.0 + float(np.linalg.norm(ref)))


def check_build(a, q, phi, d, m):
    expected = compressed(q, phi, d, m)
    a = np.asarray(a)
    if a.shape != expected.shape:
        return f"build: shape {a.shape}, expected {expected.shape}"
    err = _rel(a - expected, expected)
    if not err <= ROUNDOFF:
        return f"build: differs from Q^H T_Phi Q by {err:.3e} relative"
    return None


def check_verdict(decision, expected: bool, what: str):
    if bool(decision.verdict) is not expected:
        return f"is_mtto: verdict {decision.verdict} on {what}, expected {expected}"
    return None


def check_recovered(psi1, psi2, a_expected, q, d, m):
    for name, psi in (("analytic part", psi1), ("costar part", psi2)):
        if laurent(psi)[0] < 0:
            return f"recover_symbol: {name} has negative frequencies"
    rebuilt = compressed(q, add(psi1, star(psi2)), d, m)
    err = _rel(rebuilt - a_expected, a_expected)
    if not err <= SOLVE:
        return f"recover_symbol: pair rebuilds A with relative residual {err:.3e}"
    return None


def check_zero_decomposition(result, phi0, theta):
    if not result.is_zero:
        return f"zero_symbol_decompose: symbol of the zero operator refused, norm {result.operator_norm:.3e}"
    for name, psi in (("analytic factor", result.psi1), ("costar factor", result.psi2)):
        if laurent(psi)[0] < 0:
            return f"zero_symbol_decompose: {name} has negative frequencies"
    again = add(convolve(theta, result.psi1), star(convolve(theta, result.psi2)))
    err = norm(add(again, (laurent(phi0)[0], -laurent(phi0)[1]))) / (1.0 + norm(phi0))
    if not err <= SOLVE:
        return f"zero_symbol_decompose: Theta Psi1 + (Theta Psi2)* misses Phi0 by {err:.3e}"
    return None


def check_basis(q, theta, n, d, m):
    """Orthonormal n columns inside the kernel of the analytic-part map."""
    q = np.asarray(q)
    if q.shape != (m * d, n):
        return f"basis: shape {q.shape}, expected {(m * d, n)}"
    ortho = float(np.linalg.norm(q.conj().T @ q - np.eye(n)))
    if not ortho <= ROUNDOFF * n:
        return f"basis: columns not orthonormal, residual {ortho:.3e}"
    leak = float(np.linalg.norm(analytic_part_matrix(theta, d, m) @ q))
    if not leak <= ROUNDOFF * n:
        return f"basis: Theta* f has an analytic part of norm {leak:.3e}"
    return None


def check_dimension(dim, n, d):
    if dim != class_dimension(n, d):
        return f"dim: {dim}, expected 2nd - d^2 = {class_dimension(n, d)}"
    return None
