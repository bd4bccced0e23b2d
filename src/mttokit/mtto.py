"""Truncated Toeplitz operators with matrix symbols on a model space.

An operator A_Phi compresses multiplication by a bounded matrix symbol
Phi to the model space.  As in Sarason's scalar theory, one defect
identity recognizes the class without a symbol: A is in it exactly when
Delta = A - S A S* = X K0* + K0 Y* over the kernel frame K0 at 0, that is
when P Delta P = 0 for P = I - U U* off the first defect space (U its
orthonormal basis), or when A - S* A S splits so over the second kernel
frame; `_delta` alone forms either identity, and `membership_witness`
splits one on request.  The split (X, Y) gives the coordinates of a symbol
pair, recovered at minimum norm, with the zero-symbol gauge resolved
explicitly.  Every operator is assembled as Q* M Q from a matrix M on the
coefficient window: M = T_Phi, the block Toeplitz matrix of the symbol,
gives A_Phi.  Membership and recovery form Delta once and decide in the
Frobenius norm, with no SVD, on ||P Delta P||_F against the scale-relative
threshold numerics.REL * ||A||_F (1e-9 ||A||_F); the zero operator passes
with residual exactly 0, and residual / 2 <= dist_F(A, class) <=
m * residual.  The zero-symbol tests default to REL * ||Phi||, with ||Phi||
the norm of the coefficients.  A symbol of the zero operator is split on
Theta alone (`_zero_split`): an analytic or coanalytic one by one division,
a mixed one with Phi* beside it and both constant terms from the left
inverse of [Theta_1; ...; Theta_m] that the InnerFunction keeps.  The class
dimension is a count, 2nd - d^2, read off the space.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .errors import (
    DimensionMismatchError,
    IdentityCheckError,
    NotMttoError,
    NotZeroOperatorError,
)
from .laurent import MatLaurent, boundary_adjoint, convolve, reversed_adjoint
from .model_operator import (
    DefectSpaces,
    OperatorMatrix,
    defect_spaces,
    matrix_of,
    s_theta,
    xhat,
)
from .model_space import InnerFunction, ModelSpaceBasis, kernel_frame, tilde_kernel_frame
from .numerics import CHECK_TOL, REBUILD_TOL, REL, block_toeplitz, frobenius, opnorm, require_small


def _compress_toeplitz(basis: ModelSpaceBasis, tiles: np.ndarray) -> np.ndarray:
    """Q* T Q for the block Toeplitz T on the coefficient window whose
    block (k, j) is tiles[k - j + m - 1], the blocks at offsets 1 - m .. m - 1."""
    m, q = basis.inner.m, basis.q
    return q.conj().T @ block_toeplitz(tiles, m, m) @ q


def build(basis: ModelSpaceBasis, phi: MatLaurent) -> OperatorMatrix:
    """Compress multiplication by phi to the model space: Q* T_Phi Q."""
    if phi.dim != basis.inner.d:
        raise DimensionMismatchError(
            f"symbol dimension {phi.dim} does not match model space over C^{basis.inner.d}"
        )
    m = basis.inner.m
    return OperatorMatrix(basis, _compress_toeplitz(basis, phi.window(1 - m, m - 1)))


def semi_commutator_left_factor(basis: ModelSpaceBasis, phi: MatLaurent) -> np.ndarray:
    """Matrix of f -> projection of phi times the constant f(0): Q* T_Phi E0 Q
    with E0 keeping window block 0, that is Q* [Phi_0; ...; Phi_{m-1}] Q[:d];
    the left factor that turns the defect operator into A - S A S*."""
    d, m, q = basis.inner.d, basis.inner.m, basis.q
    column = phi.window(0, m - 1).reshape(m * d, d)
    return (column.conj().T @ q).conj().T @ q[:d]  # (column* Q)* = Q* column, without copying Q*


def semi_commutator_residual(basis: ModelSpaceBasis, phi: MatLaurent, a) -> float:
    """Check A - S A S* against its closed form for an analytic symbol."""
    if phi.lo < 0:
        raise ValueError("the semi-commutator identity needs an analytic symbol")
    return opnorm(_delta(basis, matrix_of(a, basis)) - semi_commutator_left_factor(basis, phi))


@dataclass
class MttoWitness:
    """n x d coordinates with Delta = X K* + K Y* up to `residual`, for
    Delta = A - S A S* and K = K0, or A - S* A S and the second frame."""

    x: np.ndarray
    y: np.ndarray
    residual: float


def _split_coords(delta: np.ndarray, frame: np.ndarray, kp: np.ndarray):
    """X = (I - K K+) Delta K+*, Y = (Delta - X K*)* K+*."""
    x = (delta - frame @ (kp @ delta)) @ kp.conj().T
    return x, (delta - x @ frame.conj().T).conj().T @ kp.conj().T


def _frame_split(delta: np.ndarray, frame: np.ndarray, kp: np.ndarray) -> MttoWitness:
    """The split with its residual ||Delta - X K* - K Y*||_F = ||P Delta P||_F, P = I - K K+."""
    x, y = _split_coords(delta, frame, kp)
    return MttoWitness(x, y, frobenius(delta - x @ frame.conj().T - frame @ y.conj().T))


def _off_defect_norm(delta: np.ndarray, u: np.ndarray) -> float:
    """||P Delta P||_F for P = I - U U*, as two rank-d corrections with U*
    formed once, the second subtracted in place; exactly 0 when the defect
    basis U is square (n = d), where P = 0."""
    if u.shape[1] == u.shape[0]:
        return 0.0
    u_adj = u.conj().T
    off = delta - u @ (u_adj @ delta)
    off -= (off @ u) @ u_adj
    return frobenius(off)


def _delta(basis: ModelSpaceBasis, amat: np.ndarray, starred: bool = False) -> np.ndarray:
    """The defect identity Delta = A - S A S*, or A - S* A S when `starred`."""
    s, s_adj = s_theta(basis)
    left, right = (s_adj, s) if starred else (s, s_adj)
    return amat - left.mat @ amat @ right.mat


def membership_witness(basis: ModelSpaceBasis, a, starred: bool = False) -> MttoWitness:
    """The split of A - S A S* over K0, or of A - S* A S over the second
    kernel frame when `starred`; its residual is ||P Delta P||_F off that
    frame, and the two residuals agree in exact arithmetic (S K0~ spans the
    first defect space)."""
    ds = defect_spaces(basis)
    frame, kp = (ds.dt_frame, ds.dt_pinv) if starred else (ds.d_frame, ds.d_pinv)
    return _frame_split(_delta(basis, matrix_of(a, basis), starred), frame, kp)


def _membership(basis: ModelSpaceBasis, amat: np.ndarray, tol: Optional[float]):
    """The membership rule, written once for `is_mtto` and `recover_symbol`:
    (Delta, residual, ||A||_F, tol, bracket) for Delta = A - S A S* and the
    residual ||P Delta P||_F, P = I - U U* off the first defect space, two
    n x n products and two rank-d corrections, no SVD on a warm basis, and
    exactly 0 when n = d (P = 0).  A is a member when residual <= tol, tol
    defaulting to REL * ||A||_F.  X -> X - S X S* is inverted by
    sum_{k<m} S^k X S*^k, so the bracket (residual / 2, m * residual) holds
    dist_F(A, class)."""
    delta = _delta(basis, amat)
    residual = _off_defect_norm(delta, defect_spaces(basis).d_basis)
    scale = frobenius(amat)
    tol = REL * scale if tol is None else tol
    return delta, residual, scale, tol, (residual / 2, basis.inner.m * residual)


@dataclass
class MttoDecision:
    """Verdict residual <= tol on D = ||P Delta P||_F; `distance_bounds` =
    (residual / 2, m * residual) brackets the Frobenius distance to the
    class.  It keeps no array: `membership_witness` gives the split."""

    verdict: bool
    residual: float
    tol: float
    distance_bounds: tuple[float, float]

    def to_json(self) -> dict:
        return asdict(self)


def is_mtto(basis: ModelSpaceBasis, a, tol: Optional[float] = None) -> MttoDecision:
    """Decide membership: the verdict is residual <= tol on the residual
    ||P Delta P||_F of Delta = A - S A S*, tol defaulting to REL * ||A||_F,
    with the bracket (residual / 2, m * residual) of the distance to the
    class, by the one rule that recover_symbol shares (`_membership`).  It
    forms Delta once, copies nothing and splits nothing.  An operator of
    another space is refused."""
    _, residual, _, tol, bounds = _membership(basis, matrix_of(a, basis), tol)
    return MttoDecision(bool(residual <= tol), float(residual), float(tol), bounds)


def _divide_by_theta(inner: InnerFunction, lo: int, target: np.ndarray):
    """Divide a coefficient array by Theta, all its columns in one batch:
    `target` (K, d, ...) holds frequencies lo..hi of one symbol or several
    side by side (Phi and Phi* in `_zero_split`).  Returns (start, Q, R):
    Q = P+(Theta* target) over frequencies start..top, start = max(lo - m, 0)
    (Theta* target vanishes below lo - m) and top = max(hi, 0), and the
    remainder R = target - Theta Q over min(lo, start)..top + m, least in
    norm because Theta is unitary on the circle.  Theta* has frequencies
    -m..0 only (`inner.adjoint_blocks`), so it lowers every frequency it
    multiplies: the target's blocks below 0 never reach the quotient, and
    only those at max(lo, 0)..hi are convolved (a target wholly below 0 has
    quotient 0), each quotient block the same sum in the same order as over
    the whole target.  So the cost follows the length of target, not |lo|,
    and a zero symbol's split convolves half of it."""
    m, hi = inner.m, lo + target.shape[0] - 1
    start, top = max(lo - m, 0), max(hi, 0)
    base = min(lo, start)
    if hi < 0:
        quotient = np.zeros((1,) + target.shape[1:], dtype=np.complex128)
    else:
        analytic = max(lo, 0)
        quotient = convolve(inner.adjoint_blocks, target[analytic - lo :])[max(m - analytic, 0) :]
    remainder = np.zeros((top + m + 1 - base,) + target.shape[1:], dtype=np.complex128)
    remainder[lo - base : lo - base + target.shape[0]] = target
    remainder[start - base :] -= convolve(inner.blocks, quotient)
    return start, quotient, remainder


def commutant_factor(basis: ModelSpaceBasis, phi: MatLaurent):
    """Solve Theta Phi1 = Phi Theta for an analytic Phi1 by division by
    Theta.  A small residual certifies that multiplication by phi leaves
    Theta H^2 invariant, which forces A_phi to commute with the shift;
    that consequence is verified before returning."""
    if phi.lo < 0:
        raise ValueError("commutant factorization needs an analytic symbol")
    inner = basis.inner
    start, phi1, remainder = _divide_by_theta(inner, phi.lo, convolve(phi.coeffs, inner.blocks))  # Phi Theta from phi.lo
    residual = frobenius(remainder)
    if residual <= CHECK_TOL * (1.0 + phi.norm() * inner.theta.norm()):
        a_phi = build(basis, phi)
        s, _ = s_theta(basis)
        comm = opnorm(a_phi.mat @ s.mat - s.mat @ a_phi.mat)
        require_small(comm, CHECK_TOL * (1.0 + opnorm(a_phi.mat)), IdentityCheckError,
                      "factorization succeeded but the operator does not commute, norm {residual:.3e}")
    return MatLaurent(start, phi1), residual


@dataclass
class RecoveredSymbol:
    psi1: MatLaurent
    psi2: MatLaurent
    residual: float


def recover_symbol(basis: ModelSpaceBasis, a, tol: Optional[float] = None) -> RecoveredSymbol:
    """Minimum-norm symbol pair (Psi1, Psi2), both in the standard symbol
    space, with A = A_{Psi1 + Psi2*}.  The rule of `_membership`, the one
    is_mtto decides by, forms Delta = A - S A S*, so the two agree at every
    tol: a non-member is refused with the certified interval of its
    distance to the class; a member's Delta is split once over K0, and the
    rebuild is checked to REBUILD_TOL ||A||_F.  Psi1, Psi2 have coordinates
    (X + K0 C, Y - K0 C*), with the d x d gauge C of minimum norm:
    H C + C H = Y* K0 - K0* X for H = K0* K0, in the cached eigenbasis of H."""
    amat, ds, m = matrix_of(a, basis), defect_spaces(basis), basis.inner.m
    delta, residual, scale, tol, (low, high) = _membership(basis, amat, tol)
    if not residual <= tol:
        raise NotMttoError(
            f"operator is not a truncated Toeplitz operator: residual {residual:.3e}"
            f" > tol {tol:.3e}; its Frobenius distance to the class lies in [{low:.3e}, {high:.3e}]"
        )
    lam, v, k0 = ds.gram_values, ds.gram_vectors, ds.d_frame
    x, y = _split_coords(delta, k0, ds.d_pinv)
    rhs = v.conj().T @ (y.conj().T @ k0 - k0.conj().T @ x) @ v
    c = v @ (rhs / np.add.outer(lam, lam)) @ v.conj().T
    f = basis.q.reshape(m, basis.inner.d, basis.n)  # window blocks of Q
    p1, p2 = f @ (x + k0 @ c), f @ (y - k0 @ c.conj().T)
    # T_{Psi1 + Psi2*}: block (k, j) is Psi1_{k-j} for k >= j plus (Psi2_{j-k})* for j >= k
    tiles = np.concatenate([reversed_adjoint(p2[1:]), p1[:1] + reversed_adjoint(p2[:1]), p1[1:]])
    residual = require_small(frobenius(_compress_toeplitz(basis, tiles) - amat), REBUILD_TOL * scale,
                             IdentityCheckError, "recovered symbol rebuilds with residual {residual:.3e}")
    return RecoveredSymbol(MatLaurent(0, p1), MatLaurent(0, p2), float(residual))


@dataclass
class ZeroSymbolResult:
    is_zero: bool
    operator_norm: float
    psi1: Optional[MatLaurent] = None
    psi2: Optional[MatLaurent] = None
    residual: Optional[float] = None
    tol: Optional[float] = None  # the bound operator_norm was decided against


def _zero_split(inner: InnerFunction, phi: MatLaurent):
    """((Psi1, Psi2), E), both analytic, with E the coefficients of Phi -
    Theta Psi1 - (Theta Psi2)* (of its adjoint for a coanalytic Phi), read
    off Theta alone.  The pair is unique for pure Theta (Theta Psi1 = -(Theta
    Psi2)* is a constant C with Theta* C analytic, so C = 0), so an analytic
    Phi has Psi2 = 0 and Psi1 = P+(Theta* Phi), one division, and a
    coanalytic Phi the mirror image.  A mixed Phi is divided with Phi* beside
    it: Theta* target - Psi is coanalytic, so the quotient Q agrees with Psi
    off j = 0, and the remainder at k = 1..m is Theta_k (Psi(0) - Q(0)),
    solved for both constant terms by `inner.tail_inverse`."""
    d, m = inner.d, inner.m
    if phi.lo >= 0 or phi.hi <= 0:  # Phi = Theta (Theta* Phi), or Phi* = Theta (Theta* Phi*)
        far = phi if phi.lo >= 0 else boundary_adjoint(phi)
        start, psi, err = _divide_by_theta(inner, far.lo, far.coeffs)
        pair = (MatLaurent(start, psi), MatLaurent.zero(d))
        return (pair if far is phi else pair[::-1]), err
    b = max(phi.hi, -phi.lo)
    window = phi.window(-b, b)
    _, psi, remainder = _divide_by_theta(inner, -b, np.concatenate([window, reversed_adjoint(window)], axis=2))
    fix = inner.tail_inverse @ remainder[b + 1 : b + m + 1].reshape(m * d, -1)
    psi[0] += fix
    remainder[b : b + m + 1] -= inner.blocks @ fix
    # Phi - Theta Psi1 - (Theta Psi2)* = R1 + R2* - Phi for R = [Phi, Phi*] - Theta [Psi1, Psi2]
    err = np.zeros((2 * (b + m) + 1, d, d), dtype=np.complex128)  # frequencies -(b+m)..b+m
    err[m:] = remainder[:, :, :d]
    err[: 2 * b + m + 1] += reversed_adjoint(remainder[:, :, d:])
    err[m : m + 2 * b + 1] -= window
    return (MatLaurent(0, psi[:, :, :d]), MatLaurent(0, psi[:, :, d:])), err


def zero_symbol_decompose(basis: ModelSpaceBasis, phi: MatLaurent, tol: Optional[float] = None) -> ZeroSymbolResult:
    """Decide ||A_Phi|| <= tol, tol defaulting to REL * ||Phi||, the norm of
    the coefficients: split a zero symbol by `_zero_split`, checked to
    REBUILD_TOL * ||Phi||, and certify any other by its operator norm."""
    if phi.dim != basis.inner.d:
        raise DimensionMismatchError("symbol dimension does not match")
    nrm, scale = opnorm(build(basis, phi).mat), phi.norm()
    tol = float(REL * scale if tol is None else tol)
    if nrm > tol:
        return ZeroSymbolResult(is_zero=False, operator_norm=float(nrm), tol=tol)
    (psi1, psi2), err = _zero_split(basis.inner, phi)
    residual = require_small(frobenius(err), REBUILD_TOL * scale, IdentityCheckError,
                             "zero-operator symbol failed to decompose, residual {residual:.3e}")
    return ZeroSymbolResult(True, float(nrm), psi1, psi2, residual, tol)


def factor_through_theta(basis: ModelSpaceBasis, phi: MatLaurent, tol: Optional[float] = None):
    """Divide an analytic symbol of the zero operator by Theta: its split
    has Psi2 = 0, so Phi = Theta Psi1, and (Psi1, residual) is returned."""
    if phi.lo < 0:
        raise ValueError("only analytic symbols factor through Theta")
    result = zero_symbol_decompose(basis, phi, tol)
    if not result.is_zero:
        raise NotZeroOperatorError(f"operator norm {result.operator_norm:.3e} exceeds {result.tol:.3e}")
    return result.psi1, result.residual


@dataclass
class DimensionReport:
    """The class dimension 2nd - d^2 with the counts it is made of: 2nd
    coordinates of a symbol pair, less the d^2 of the zero-symbol gauge."""

    dim: int
    gauge_dim: int
    symbol_pair_dim: int
    operator_space_dim: int

    def to_json(self) -> dict:
        return asdict(self)


def mtto_dimension(space: InnerFunction | ModelSpaceBasis) -> DimensionReport:
    """The dimension 2nd - d^2 of the operator class, read off the .n and
    .d of an `InnerFunction` or of a `ModelSpaceBasis`; no basis is needed.

    A_{Psi1 + Psi2*} - S A S* = X K0* + K0 Y* with X, Y the coordinates of
    the columns of Psi1, Psi2.  S is nilpotent, so X -> X - S X S* is
    invertible, and (X, Y) -> X K0* + K0 Y* has exactly the d^2 gauge
    (K0 C, -K0 C*) as kernel when rank K0 = d.  Both facts hold on every
    basis of a pure Theta: K0* K0 = I - Theta(0) Theta(0)* is invertible,
    and S^k = Q* Z^k Q because Z maps Theta H^2 into itself, so S^m = 0.
    Nothing is measured here; `InnerFunction` has already checked n by
    the projector trace and the det degree, `defect_spaces` refuses a
    rank-deficient kernel frame, and the suite measures ||S^m||.
    """
    n, d = space.n, space.d
    return DimensionReport(
        dim=2 * n * d - d * d,
        gauge_dim=d * d,
        symbol_pair_dim=2 * n * d,
        operator_space_dim=n * n,
    )


def finite_rank(basis: ModelSpaceBasis, lam: complex, y, swapped: bool = False) -> OperatorMatrix:
    """Sandwich a d x d block between the two kernel frames at lam.

    The result has the same rank as the block and always passes the
    membership test; at lam = 0 it reproduces the defect-to-defect
    operators up to the frame change of coordinates.
    """
    y = np.asarray(y, dtype=np.complex128)
    d = basis.inner.d
    if y.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} block")
    k = kernel_frame(basis, lam)
    kt = tilde_kernel_frame(basis, lam)
    if swapped:
        return OperatorMatrix(basis, kt @ y @ k.conj().T)
    return OperatorMatrix(basis, k @ y @ kt.conj().T)


def finite_rank_as_xhat(basis: ModelSpaceBasis, ds: DefectSpaces, y) -> OperatorMatrix:
    """The lam = 0 sandwich expressed through the orthonormal defect
    bases: the block is conjugated by the frame-to-basis changes."""
    r_d = ds.d_basis.conj().T @ ds.d_frame
    r_dt = ds.dt_basis.conj().T @ ds.dt_frame
    return xhat(basis, ds, r_d @ np.asarray(y, dtype=np.complex128) @ r_dt.conj().T)
