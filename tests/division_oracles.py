"""Division by Theta on Laurent objects, and by least squares, kept as
test references.

`mttokit.mtto` divides whole coefficient arrays by Theta: the zero-symbol
split divides an analytic or coanalytic symbol alone, and stacks a mixed
Phi and Phi* side by side, takes one convolution with the blocks of Theta*
for both quotients and one with the blocks for the remainders, and fixes
both constant terms with the left inverse of [Theta_1; ...; Theta_m] that
the InnerFunction keeps.  The functions below are the route it replaced,
one Laurent product, split, subtraction and `lstsq` per slot, with the
same tolerances and refusals, the split F = F_plus + F_star* it rested on,
and the minimum-norm least squares over block-Toeplitz systems that the
witness tests pin both to.  Every product here is
`product_oracles.einsum_convolve`, the convolution `laurent.convolve`
replaced, so no oracle shares the kernel under test.
`full_array_division` is the array route as it was before it dropped the
target's frequencies below 0: one convolution of Theta* with the whole
target, of which only the blocks at start..top are kept;
`division_rounding_bounds` is how far the array route may lie from it when
their sums are taken in other orders.  `zero_certificate` is the bound on
||A_Phi|| that the remainder of those slots gives, the one a zero verdict
is certified by.  `commutant_quotient` is no reference but the array route
itself on the analytic target Phi Theta, the division the commutant tests
read; `commutant_factor` is its Laurent route.
"""

from typing import Optional

import numpy as np

from mttokit.errors import DimensionMismatchError, IdentityCheckError
from mttokit.laurent import MatLaurent, boundary_adjoint, convolve, reversed_adjoint
from mttokit.model_operator import s_theta
from mttokit.model_space import InnerFunction, ModelSpaceBasis, make_inner_potapov
from mttokit.mtto import ZeroSymbolResult, _divide_by_theta, build
from mttokit.numerics import CHECK_TOL, REL, frobenius, opnorm, solve_min_norm
from mttokit.randgen import haar_unitary, random_projection

from dimension_oracles import toeplitz_of
from product_oracles import einsum_convolve, einsum_multiply, rounding_bound


def full_array_division(blocks: np.ndarray, lo: int, target: np.ndarray):
    """(start, Q, R) as `mtto._divide_by_theta` gives them, with Theta*
    convolved over the whole target, frequencies lo..hi."""
    m, hi = blocks.shape[0] - 1, lo + target.shape[0] - 1
    start, top = max(lo - m, 0), max(hi, 0)
    base = min(lo, start)
    keep = einsum_convolve(reversed_adjoint(blocks), target)[max(m - lo, 0) :]  # frequencies start..top
    quotient = np.zeros((top + 1 - start,) + target.shape[1:], dtype=np.complex128)
    quotient[quotient.shape[0] - keep.shape[0] :] = keep
    remainder = np.zeros((top + m + 1 - base,) + target.shape[1:], dtype=np.complex128)
    remainder[lo - base : lo - base + target.shape[0]] = target
    remainder[start - base :] -= einsum_convolve(blocks, quotient)
    return start, quotient, remainder


def division_rounding_bounds(blocks: np.ndarray, lo: int, target: np.ndarray, want):
    """Entrywise bounds on how far `mtto._divide_by_theta` may lie from
    `want`, what `full_array_division` gives, when the two take their sums
    in other orders: the rounding bound of the quotient's convolution, and
    for the remainder target - Theta Q that of Theta by Q, plus |Theta|
    convolved with the quotient's bound, plus the two subtractions'
    roundings."""
    m, u = blocks.shape[0] - 1, 2.0**-53
    start, quotient, remainder = want
    base = min(lo, start)
    bound_q = np.zeros(quotient.shape)
    keep = rounding_bound(reversed_adjoint(blocks), target)[max(m - lo, 0) :]
    bound_q[quotient.shape[0] - keep.shape[0] :] = keep
    product = rounding_bound(blocks, np.abs(quotient) + bound_q) + einsum_convolve(np.abs(blocks), bound_q).real
    bound_r = np.zeros(remainder.shape)
    bound_r[start - base :] = product
    return bound_q, bound_r + 2 * u * (np.abs(remainder) + bound_r)


def analytic_split(f: MatLaurent):
    """Write F = F_plus + (F_star)* with F_plus, F_star both analytic.

    F_plus keeps the frequencies >= 0; F_star collects the rest, so its
    support starts at -min(hi, -1) >= 1 (or it is zero).  Recomposition
    is exact.
    """
    d = f.dim
    if f.hi >= 0:
        plus = MatLaurent(max(f.lo, 0), f.coeffs[max(f.lo, 0) - f.lo :])
    else:
        plus = MatLaurent.zero(d)
    if f.lo < 0:
        neg = f.coeffs[: min(f.hi, -1) - f.lo + 1]  # frequencies lo..-1
        f_star = MatLaurent(-min(f.hi, -1), reversed_adjoint(neg))  # F_star_j = (F_{-j})*
    else:
        f_star = MatLaurent.zero(d)
    return plus, f_star


def divide_by_theta(theta: MatLaurent, target: MatLaurent):
    """Analytic quotient Q = P+(Theta* target) and the remainder target - Theta Q."""
    quotient, _ = analytic_split(einsum_multiply(boundary_adjoint(theta), target))
    return quotient, target - einsum_multiply(theta, quotient)


def analytic_slot(theta: MatLaurent, target: MatLaurent) -> MatLaurent:
    """Psi in target = Theta Psi + (Theta Psi')*: the quotient by Theta with
    its constant term fixed by least squares over [Theta_1; ...; Theta_m]."""
    quotient, remainder = divide_by_theta(theta, target)
    ks = range(1, theta.hi + 1)
    stacked = np.concatenate([theta.coeff(k) for k in ks])
    fix = np.linalg.lstsq(stacked, np.concatenate([remainder.coeff(k) for k in ks]), rcond=None)[0]
    return quotient + MatLaurent.constant(fix)


def zero_symbol_decompose(basis: ModelSpaceBasis, phi: MatLaurent, tol: Optional[float] = None) -> ZeroSymbolResult:
    if phi.dim != basis.inner.d:
        raise DimensionMismatchError("symbol dimension does not match")
    theta = basis.inner.theta
    nrm = opnorm(build(basis, phi).mat)
    if tol is None:
        tol = REL * phi.norm()
    if nrm > tol:
        return ZeroSymbolResult(is_zero=False, operator_norm=float(nrm))
    psi1 = analytic_slot(theta, phi)
    psi2 = analytic_slot(theta, boundary_adjoint(phi))
    residual = (phi - einsum_multiply(theta, psi1) - boundary_adjoint(einsum_multiply(theta, psi2))).norm()
    if residual > 1e-8 * phi.norm():
        raise IdentityCheckError(f"zero-operator symbol failed to decompose, residual {residual:.3e}")
    return ZeroSymbolResult(True, float(nrm), psi1, psi2, float(residual))


def zero_certificate(basis: ModelSpaceBasis, phi: MatLaurent) -> float:
    """sqrt(2m - 1) ||E_{|k|<m}||_F for the remainder E = Phi - Theta Psi1 -
    (Theta Psi2)* of the two slots above: the bound on ||A_Phi|| = ||A_E||
    by which `mtto.zero_symbol_decompose` certifies a zero symbol."""
    theta, m = basis.inner.theta, basis.inner.m
    psi1, psi2 = analytic_slot(theta, phi), analytic_slot(theta, boundary_adjoint(phi))
    err = phi - einsum_multiply(theta, psi1) - boundary_adjoint(einsum_multiply(theta, psi2))
    return float(np.sqrt(2 * m - 1) * np.linalg.norm(err.window(1 - m, m - 1)))


def commutant_quotient(inner: InnerFunction, phi: MatLaurent):
    """(Phi1, ||R||_F) for Phi Theta = Theta Phi1 + R, an analytic Phi,
    by one `mtto._divide_by_theta` of the array Phi Theta.  R bounds the
    commutator of A_Phi with the shift: for f in K_Theta, z f = P(z f) +
    Theta c with c constant and ||c|| <= ||f||, and (A_Phi S - S A_Phi) f =
    -P(R c), so ||A_Phi S - S A_Phi|| <= sqrt(K) ||R||_F over the K blocks
    of R, and R = 0 says that A_Phi commutes with S."""
    start, phi1, remainder = _divide_by_theta(inner, phi.lo, convolve(phi.coeffs, inner.blocks))
    return MatLaurent(start, phi1), frobenius(remainder)


def commutant_factor(basis: ModelSpaceBasis, phi: MatLaurent):
    if phi.lo < 0:
        raise ValueError("commutant factorization needs an analytic symbol")
    theta = basis.inner.theta
    phi1, remainder = divide_by_theta(theta, einsum_multiply(phi, theta))
    residual = remainder.norm()
    if residual <= CHECK_TOL * (1.0 + phi.norm() * theta.norm()):
        a_phi = build(basis, phi)
        s, _ = s_theta(basis)
        comm = opnorm(a_phi.mat @ s - s @ a_phi.mat)
        if comm > 1e-9 * (1.0 + opnorm(a_phi.mat)):
            raise IdentityCheckError(
                f"factorization succeeded but the operator does not commute, norm {comm:.3e}"
            )
    return phi1, residual


def factor_through_theta(basis: ModelSpaceBasis, phi: MatLaurent, tol: Optional[float] = None):
    """(Psi1, residual) for an analytic symbol of the zero operator, Phi =
    Theta Psi1; None when ||A_Phi|| exceeds tol."""
    if phi.lo < 0:
        raise ValueError("only analytic symbols factor through Theta")
    nrm = opnorm(build(basis, phi).mat)
    if tol is None:
        tol = REL * phi.norm()
    if nrm > tol:
        return None
    phi1, remainder = divide_by_theta(basis.inner.theta, phi)
    residual = remainder.norm()
    if residual > 1e-8 * phi.norm():
        raise IdentityCheckError(f"division by Theta left residual {residual:.3e}")
    return phi1, residual


def lstsq_commutant(basis, phi):
    """Minimum-norm least squares for Theta Phi1 = Phi Theta over the
    coefficients of Phi1 up to degree phi.hi + m."""
    theta = basis.inner.theta
    d, m = basis.inner.d, basis.inner.m
    q = phi.hi + m
    sys = toeplitz_of(lambda t: np.kron(theta.coeff(t), np.eye(d)), m + q + 1, q + 1)
    rhs_fun = einsum_multiply(phi, theta)
    rhs = np.concatenate([rhs_fun.coeff(k).reshape(-1) for k in range(m + q + 1)])
    x, _ = solve_min_norm(sys, rhs)
    phi1 = MatLaurent(0, x.reshape(q + 1, d, d))
    return phi1, (einsum_multiply(theta, phi1) - rhs_fun).norm()


def lstsq_zero_symbol(basis, phi):
    """Minimum-norm least squares for Theta Psi1 + (Theta Psi2)* = Phi over
    the coefficients of Psi1 up to degree max(phi.hi, m) and of Psi2 up to
    max(-phi.lo, m)."""
    theta = basis.inner.theta
    d, m = basis.inner.d, basis.inner.m
    q1, q2 = max(phi.hi, m), max(-phi.lo, m)
    lo_k, hi_k = -(m + q2), m + q1
    rows, dd, cols1 = hi_k - lo_k + 1, d * d, (q1 + 1) * d * d
    eye = np.eye(d)
    # first slot: coefficient k of Theta Psi1, block (k, j) is Theta_{k-j} acting on Psi1_j
    first = toeplitz_of(lambda t: np.kron(theta.coeff(t + lo_k), eye), rows, q1 + 1)
    # second slot: coefficient k of the boundary adjoint of Theta Psi2,
    # parametrized linearly by Y_j = Psi2_j* so the system stays C-linear;
    # block (k, j) holds Theta_{-k-j}, a Toeplitz matrix read from the last row up
    second = toeplitz_of(lambda t: np.kron(eye, np.conj(theta.coeff(t - hi_k))), rows, q2 + 1)
    sys = np.hstack([first, second.reshape(rows, dd, -1)[::-1].reshape(rows * dd, -1)])
    rhs = np.concatenate([phi.coeff(k).reshape(-1) for k in range(lo_k, hi_k + 1)])
    x, _ = solve_min_norm(sys, rhs)
    y = x[cols1:].reshape(q2 + 1, d, d)
    return MatLaurent(0, x[:cols1].reshape(q1 + 1, d, d)), MatLaurent(0, np.conj(np.transpose(y, (0, 2, 1))))


def zero_symbol(theta, psi1, psi2):
    """Theta Psi1 + (Theta Psi2)*, a symbol of the zero operator."""
    return einsum_multiply(theta, psi1) + boundary_adjoint(einsum_multiply(theta, psi2))


def near_impure_space(margin, count=4, seed=7):
    """Potapov product on C^2 whose projections are nearly orthogonal to
    one unit vector v, so that ||Theta(0) v|| is close to 1: each factor
    keeps 1 - eps^2 of |v|^2, and count * eps^2 / 2 is about the margin."""
    rng = np.random.default_rng(seed)
    eps = np.sqrt(2.0 * margin / count)
    v = haar_unitary(2, rng)[:, 0]
    w = np.array([-np.conj(v[1]), np.conj(v[0])])  # unit vector orthogonal to v
    factors = []
    for _ in range(count):
        u = eps * v + np.sqrt(1.0 - eps**2) * np.exp(2j * np.pi * rng.uniform()) * w
        factors.append(np.outer(u, u.conj()))
    return ModelSpaceBasis(make_inner_potapov(factors, left_unitary=haar_unitary(2, rng)))


def rank_one_space(d, m, seed):
    """Potapov product of rank-one factors behind a Haar unitary: Theta(0)
    is neither 0 nor close to an isometry."""
    rng = np.random.default_rng(seed)
    factors = [random_projection(d, 1, rng) for _ in range(m)]
    return ModelSpaceBasis(make_inner_potapov(factors, left_unitary=haar_unitary(d, rng)))
