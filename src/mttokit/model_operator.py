"""Operators on a model space, as matrices in its deterministic basis.

The compressed shift, its defect spaces, the maps that invert the defect
operators on their ranges, and the conjugation induced by a symmetric
unitary all live here, tied to a ModelSpaceBasis.  The shift is the
row-block shift of the basis, with no md x md window matrix formed; it,
the n x d defect data and J depend on the space alone: they are computed
once per basis, kept in its cache and handed out as read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, IdentityCheckError, NotGammaSymmetricError, NotUnitaryError
from .laurent import MatLaurent, convolve, evaluate
from .model_space import ModelSpaceBasis, kernel, kernel_frame, require_member, tilde_kernel_frame
from .numerics import (CHECK_TOL, INPUT_TOL, REL, column_norms, fix_column_phases, frobenius, require_finite,
                       require_small)


@dataclass
class OperatorMatrix:
    """An operator on the model space in basis coordinates."""

    basis: ModelSpaceBasis
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=np.complex128)
        n = self.basis.n
        if self.mat.shape != (n, n):
            raise ValueError(f"operator matrix must be {n} x {n}, got {self.mat.shape}")
        require_finite(self.mat, "operator entries must be finite")


def matrix_of(a, basis: ModelSpaceBasis) -> np.ndarray:
    """The n x n matrix of an operator on `basis`; refuses an OperatorMatrix
    of another space (another basis_id) and a matrix of the wrong size."""
    if isinstance(a, OperatorMatrix):
        if a.basis is not basis and a.basis.basis_id != basis.basis_id:
            raise DimensionMismatchError(f"operator belongs to the space {a.basis.basis_id}, not {basis.basis_id}")
        return a.mat
    mat = np.asarray(a, dtype=np.complex128)
    if mat.shape != (basis.n, basis.n):
        raise DimensionMismatchError(f"operator must be {basis.n} x {basis.n}")
    return require_finite(mat, "operator entries must be finite")


def off_span(r: np.ndarray, u: np.ndarray) -> np.ndarray:
    """R (I - U U*) for U with orthonormal columns: one rank-d correction."""
    return r - (r @ u) @ u.conj().T


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)


def s_theta(basis: ModelSpaceBasis) -> tuple[np.ndarray, np.ndarray]:
    """(S, S*) as read-only n x n arrays, formed once per basis: the
    compressed shift S = Q* Z Q and its adjoint S* = S.conj().T.  Z moves
    window block j to block j + 1 (multiply by z), so S = Q[d:]* Q[:md - d]
    is one n x n product of row blocks of Q (0 when m = 1), measured against
    the model space by the basis build (`ModelSpaceBasis`, gate OFF_ULPS);
    `defect_spaces` writes down what that gate implies for I - S S*."""
    if "shift" not in basis.cache:
        d, q = basis.inner.d, basis.q
        s = q[d:].conj().T @ q[: q.shape[0] - d]
        s_adj = s.conj().T
        _frozen(s, s_adj)
        basis.cache["shift"] = (s, s_adj)
    return basis.cache["shift"]


@dataclass
class DefectSpaces:
    """The ranges of I - S S* = K0 K0* and I - S* S = K0~ K0~*, each of
    dimension d, as O(nd) data: the kernel frames d_frame / dt_frame at the
    origin (column j from the j-th coordinate vector of C^d) and, from one
    thin SVD K = U Sigma V* of each, the phase-fixed orthonormal bases U
    (d_basis / dt_basis) and the left inverses K+ = V Sigma^-1 U*
    (d_pinv / dt_pinv), whose products (K+)* K+ are the pseudo-inverses J
    and J~ of the defect operators (`j_operators`).  gram_values /
    gram_vectors diagonalize H = K0* K0 for the gauge solve of
    `recover_symbol`.  d_window (m x d x d) is the kernel window at 0,
    `kernel(inner, 0, I)`, that the frame check compared Q K0 with and
    `kernel_recurrence_check` reads.  Projectors are not kept: a reader
    applies I - U U* as a rank-d correction (`off_span`)."""

    d_basis: np.ndarray
    dt_basis: np.ndarray
    d_frame: np.ndarray
    dt_frame: np.ndarray
    d_pinv: np.ndarray
    dt_pinv: np.ndarray
    gram_values: np.ndarray
    gram_vectors: np.ndarray
    d_window: np.ndarray

    @property
    def dim(self) -> int:
        return self.d_basis.shape[1]


def _frame_svd(frame: np.ndarray):
    """Orthonormal basis U and left inverse K+ = V Sigma^-1 U* of a kernel
    frame K = U Sigma V*, from one thin SVD, with no rank cut and no check.
    The frame check of `defect_spaces` puts K within sqrt(d) CHECK_TOL of
    Theta's window W at 0, where W* W = I - Theta(0) Theta(0)* (or
    I - Theta(0)* Theta(0)), so sigma_min(K) >= sqrt(1 - ||Theta(0)||^2) -
    sqrt(d) CHECK_TOL, and the root is above 4.5e-5 under the purity floor:
    far above the rank cut, at most RANK_CUT * MAX_WINDOW = 2e-7."""
    u, sv, vh = np.linalg.svd(frame, full_matrices=False)
    return fix_column_phases(u), vh.conj().T @ ((1.0 / sv)[:, None] * u.conj().T)


def defect_spaces(basis: ModelSpaceBasis) -> DefectSpaces:
    """The defect data of a basis (`DefectSpaces`).  The basis gate implies
    I - S S* = K0 K0*, which is not formed: I - S S* - K0 K0* =
    Q* Z (I - Q Q*) Z* Q is positive semidefinite, so its norm is at most its
    trace, ||L* Z* Q||_F^2 = 0 for Q in K_Theta (and I - S* S = K0~ K0~* is
    the same for Theta~).  Checked first, in O(m d n d), is that Q still
    spans K_Theta: Q K0 and Q K0~ give back the kernel windows at 0 read off
    Theta, `kernel(inner, 0, I)` = E0 - [Theta_0; ...; Theta_{m-1}] Theta_0*
    and [Theta_1; ...; Theta_m], which makes each frame rank d for the SVDs
    (`_frame_svd`).  It trusts `basis.inner` to be the Theta of Q: a
    Theta_1 moved under Q is seen only where Theta_0 != 0."""
    if "defects" in basis.cache:
        return basis.cache["defects"]
    k0, kt0 = kernel_frame(basis, 0.0), tilde_kernel_frame(basis, 0.0)
    windows = kernel(basis.inner, 0.0, np.eye(basis.d))[0], basis.inner.blocks[1:]
    for frame, w, what in zip((k0, kt0), windows, ("kernel frame at 0", "difference-quotient frame at 0")):
        require_member(column_norms(basis.q @ frame - w.reshape(-1, basis.d)).max(), 1.0, what)
    d_basis, d_pinv = _frame_svd(k0)
    dt_basis, dt_pinv = _frame_svd(kt0)
    ds = DefectSpaces(d_basis, dt_basis, k0, kt0, d_pinv, dt_pinv, *np.linalg.eigh(k0.conj().T @ k0), windows[0])
    _frozen(*vars(ds).values())
    basis.cache["defects"] = ds
    return ds


def _report(residuals: dict) -> dict:
    """Named residuals, the worst of them and its verdict against CHECK_TOL."""
    checks = [{"name": name, "residual": float(r)} for name, r in residuals.items()]
    max_residual = max(c["residual"] for c in checks)
    return {"checks": checks, "max_residual": max_residual, "pass": max_residual <= CHECK_TOL}


def action_check(basis: ModelSpaceBasis) -> dict:
    """Exercise the closed-form action of the shift pair on the defect
    decomposition and the containments between the pieces, each identity
    as one residual over the window matrix Q of the whole basis: z f stacks
    a zero block over Q, (f - f(0)) / z drops block 0 of Q and appends a
    zero block, and the kernels at the origin are the frames K0 and K0~.
    Off a defect space with basis U, the columns of I - U U* are tested."""
    d, q = basis.inner.d, basis.q
    s, s_adj = s_theta(basis)
    ds = defect_spaces(basis)
    u, ut = ds.d_basis, ds.dt_basis
    theta0 = basis.inner.theta.coeff(0)
    pad = np.zeros((d, basis.n))
    mult_z = np.vstack([pad, q]) - np.vstack([q @ s, pad])  # z f - S f, one block longer
    div_z = np.vstack([q[d:], pad]) - q @ s_adj  # (f - f(0)) / z - S* f
    s_ut, s_adj_u = s @ ut, s_adj @ u
    return _report({
        "shift acts as multiplication off the second defect space": column_norms(off_span(mult_z, ut)).max(),
        "shift sends difference-quotient directions into the first defect space":
            column_norms(s @ ds.dt_frame + ds.d_frame @ theta0).max(),
        "adjoint shift divides by z off the first defect space":
            max(column_norms(off_span(div_z, u)).max(), column_norms(off_span(q[:d], u)).max()),
        "adjoint shift sends kernel directions into the second defect space":
            column_norms(s_adj @ ds.d_frame + ds.dt_frame @ theta0.conj().T).max(),
        "shift maps second defect space into first": frobenius(s_ut - u @ (u.conj().T @ s_ut)),
        "shift maps second complement into first complement": frobenius(off_span(u.conj().T @ s, ut)),
        "adjoint shift maps first defect space into second": frobenius(s_adj_u - ut @ (ut.conj().T @ s_adj_u)),
        "adjoint shift maps first complement into second complement":
            frobenius(off_span(ut.conj().T @ s_adj, u)),
        "defect operator is evaluation at zero followed by the kernel frame":
            frobenius(np.eye(basis.n) - s @ s_adj - ds.d_frame @ q[:d]),
    })


def j_operators(basis: ModelSpaceBasis):
    """J = (K0+)* K0+ and J~ = (K0~+)* K0~+, computed once per basis from
    the left inverses of `defect_spaces(basis)`: the pseudo-inverses of the
    defect operators I - S S* = K0 K0* and I - S* S = K0~ K0~*.  With
    K0 = U Sigma V*, J = U Sigma^-2 U*, so (I - S S*) J = J* (I - S S*) =
    U U*, the projector onto the first defect space, follows from
    K0+ K0 = I, which holds because K0 has rank d (`_frame_svd`), and from
    the defect identity the basis gate implies; likewise for the second.
    No n x n operator is formed or inverted."""
    if "j" not in basis.cache:
        ds = defect_spaces(basis)
        j, jt = (kp.conj().T @ kp for kp in (ds.d_pinv, ds.dt_pinv))
        _frozen(j, jt)
        basis.cache["j"] = (j, jt)
    return basis.cache["j"]


def xhat(basis: ModelSpaceBasis, x) -> OperatorMatrix:
    """Operator acting as x (in the coordinates of `defect_spaces(basis)`)
    from the second defect space to the first, and as zero on the complement."""
    ds, x = defect_spaces(basis), np.asarray(x, dtype=np.complex128)
    if x.shape != (ds.dim, ds.dim):
        raise ValueError(f"expected a {ds.dim} x {ds.dim} block, got {x.shape}")
    return OperatorMatrix(basis, ds.d_basis @ x @ ds.dt_basis.conj().T)


class Conjugation:
    """Antilinear involution x -> U conj(x) on C^d for symmetric unitary U."""

    def __init__(self, u):
        u = require_finite(np.asarray(u, dtype=np.complex128), "conjugation matrix entries must be finite")
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ValueError("conjugation matrix must be square")
        with np.errstate(all="ignore"):  # an overflow shows as an infinite residual, which the gate refuses
            unitarity, symmetry = u.conj().T @ u - np.eye(u.shape[0]), u - u.T
        require_small(frobenius(unitarity), INPUT_TOL, NotUnitaryError, "conjugation matrix is not unitary")
        require_small(frobenius(symmetry), INPUT_TOL, ValueError, "conjugation matrix must be symmetric")
        self.u = u
        self.dim = u.shape[0]


def gamma_symmetric_residual(f: MatLaurent, gamma: Conjugation) -> float:
    """How far the coefficients are from A_k = U A_k^T U*."""
    u = gamma.u
    return max(frobenius(a - u @ a.T @ u.conj().T) for a in f.coeffs)


def conjugation_matrix(basis: ModelSpaceBasis, gamma: Conjugation) -> np.ndarray:
    """Coordinate matrix M of the model-space conjugation: C f has
    coordinates M conj(c).  C f applies gamma coefficientwise with frequency
    reversal, multiplies by Theta and shifts down once; on the window of Q
    that is one block convolution over all n columns, of which only the m
    window blocks are formed.  Theta must be gamma-symmetric, and then C
    maps K_Theta onto itself antiunitarily (Garcia-Putinar), so the images
    lie in the space and M is unitary.  Neither is measured again: both
    read at most 2e-14 on 300 gamma-symmetric spaces, and on spaces turned
    off gamma-symmetry the images' distance from the space stayed below
    0.81 times the gamma-symmetry residual the precondition bounds by
    CHECK_TOL (`tests/element_oracles.py`).  M = M^T is checked: it read up
    to 2.6 times that residual, so the precondition does not imply it."""
    inner = basis.inner
    d, m, n = inner.d, inner.m, basis.n
    if gamma.dim != d:
        raise ValueError("conjugation dimension does not match")
    require_small(gamma_symmetric_residual(inner.theta, gamma), CHECK_TOL, NotGammaSymmetricError,
                  "theta is not gamma-symmetric, residual {residual:.3e}")
    flipped = gamma.u @ np.conj(basis.q.reshape(m, d, n)[::-1])
    image = convolve(inner.blocks, flipped, m)  # the window blocks, frequencies 0..m-1
    mat = basis.coords(image)
    require_small(frobenius(mat - mat.T), CHECK_TOL, IdentityCheckError,
                  "conjugation matrix is not symmetric, residual {residual:.3e}")
    return mat


def c_symmetric(basis: ModelSpaceBasis, gamma: Conjugation, a):
    """Test A = C A* C in coordinates; returns (verdict, residual).
    The residual is ||A - M A^T M*||_F and the threshold REL * ||A||_F, the
    rule of the membership decisions; the zero operator passes with
    residual exactly 0."""
    mat = matrix_of(a, basis)
    m = conjugation_matrix(basis, gamma)
    residual = frobenius(mat - m @ mat.T @ m.conj().T)
    return residual <= REL * frobenius(mat), float(residual)


def kernel_recurrence_check(basis: ModelSpaceBasis, count: int, seed: int) -> dict:
    """Sample the shift recurrences of the two kernel frames at `count`
    points of the disk, each on the whole frame:
    S K_lam = (K_lam - K_0) / conj(lam) and S K~_lam = lam K~_lam - K_0 Theta(lam).
    At the removable point lam = 0 the first one is S Q* W = Q* Z W for the
    kernel window W = E0 - [Theta_0; ...; Theta_{m-1}] Theta_0* read off
    Theta, the defect data's d_window (the projected frame K_0 would
    satisfy it by construction)."""
    inner, d, q = basis.inner, basis.d, basis.q
    rng = np.random.default_rng(seed)
    s, _ = s_theta(basis)
    ds = defect_spaces(basis)
    k0, w = ds.d_frame, ds.d_window
    worst_k = worst_kt = 0.0
    for _ in range(count):
        lam = 0.0
        while abs(lam) < 1e-3:  # keep away from the removable point
            lam = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
        klam, tlam = kernel_frame(basis, lam), tilde_kernel_frame(basis, lam)
        worst_k = max(worst_k, column_norms(s @ klam - (klam - k0) / np.conj(lam)).max())
        worst_kt = max(worst_kt, column_norms(s @ tlam - (lam * tlam - k0 @ evaluate(inner.theta, lam))).max())
    origin = s @ basis.coords(w) - q[d:].conj().T @ w[:-1].reshape(-1, d)  # S Q* W - Q* Z W
    return _report({
        "kernel frame recurrence": worst_k,
        "difference-quotient frame recurrence": worst_kt,
        "origin limit via direct shift": column_norms(origin).max(),
    })
