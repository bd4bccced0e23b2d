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
from .laurent import MatLaurent, convolve
from .model_space import ModelSpaceBasis, kernel_frame, off_space, require_member, tilde_kernel_frame
from .numerics import (CHECK_TOL, INPUT_TOL, RANK_CUT, REL, column_norms, fix_column_phases, frobenius, opnorm,
                       require_finite, require_small)


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

    def adjoint(self) -> "OperatorMatrix":
        return OperatorMatrix(self.basis, self.mat.conj().T)

    def to_json(self) -> dict:
        from . import serialize

        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "n": self.basis.n,
            "basis_id": self.basis.basis_id,
            "entries": serialize.matrix_to_json(self.mat),
        }


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


def s_theta(basis: ModelSpaceBasis):
    """Compressed shift S = Q* Z Q and its adjoint S* = S.conj().T.  Z moves
    window block j to block j + 1 (multiply by z), so S = Q[d:]* Q[:md - d]
    is one n x n product of row blocks of Q (0 when m = 1).  The basis
    build has measured Q against the model space (`ModelSpaceBasis`, gate
    OFF_ULPS); the defect identities of `defect_spaces` are a second check."""
    if "shift" not in basis.cache:
        d, q = basis.inner.d, basis.q
        s = q[d:].conj().T @ q[: q.shape[0] - d]
        s_adj = s.conj().T
        _frozen(s, s_adj)
        basis.cache["shift"] = (OperatorMatrix(basis, s), OperatorMatrix(basis, s_adj))
    return basis.cache["shift"]


@dataclass
class DefectSpaces:
    """The ranges of I - S S* = K0 K0* and I - S* S = K0~ K0~*, each of
    dimension d, as O(nd) data: the kernel frames d_frame / dt_frame at the
    origin (column j from the j-th coordinate vector of C^d) and, from one
    thin SVD K = U Sigma V* of each, the phase-fixed orthonormal bases U
    (d_basis / dt_basis) and the left inverses K+ = V Sigma^-1 U*
    (d_pinv / dt_pinv).  gram_values / gram_vectors diagonalize H = K0* K0
    for the gauge solve of `recover_symbol`.  Projectors are not kept: a
    reader applies I - U U* as a rank-d correction (`off_span`)."""

    d_basis: np.ndarray
    dt_basis: np.ndarray
    d_frame: np.ndarray
    dt_frame: np.ndarray
    d_pinv: np.ndarray
    dt_pinv: np.ndarray
    gram_values: np.ndarray
    gram_vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.d_basis.shape[1]


def _frame_svd(frame: np.ndarray):
    """Orthonormal basis and left inverse K+ of a kernel frame K, both
    from one thin SVD; refuses a frame whose rank, cut as in
    `numerics.rank`, is not its column count d."""
    d = frame.shape[1]
    u, sv, vh = np.linalg.svd(frame, full_matrices=False)
    if int(np.sum(sv > RANK_CUT * sv[0] * max(frame.shape))) != d:
        raise IdentityCheckError("defect spaces did not come out d-dimensional")
    kp = vh.conj().T @ ((1.0 / sv)[:, None] * u.conj().T)
    require_small(frobenius(kp @ frame - np.eye(d)), CHECK_TOL, IdentityCheckError,
                  "defect frame inversion residual {residual:.3e}")
    return fix_column_phases(u), kp


def defect_spaces(basis: ModelSpaceBasis) -> DefectSpaces:
    """Defect spaces spanned by the kernel frames at the origin, checked
    once per basis against the two defect operators, formed for this check
    only: I - S S* = K0 K0* and I - S* S = K0~ K0~*, in the Frobenius norm
    relative to the operator's norm (floored at 1).  With rank K0 =
    rank K0~ = d from `_frame_svd`, this fixes the rank and range of each."""
    if "defects" in basis.cache:
        return basis.cache["defects"]
    k0, kt0 = kernel_frame(basis, 0.0), tilde_kernel_frame(basis, 0.0)
    d_basis, d_pinv = _frame_svd(k0)
    dt_basis, dt_pinv = _frame_svd(kt0)
    s, s_adj = s_theta(basis)
    eye = np.eye(basis.n)
    for gg, frame, label in ((eye - s.mat @ s_adj.mat, k0, "I - S S* = K0 K0*"),
                             (eye - s_adj.mat @ s.mat, kt0, "I - S* S = K0~ K0~*")):
        require_small(frobenius(gg - frame @ frame.conj().T), REL * max(1.0, frobenius(gg)), IdentityCheckError,
                      "defect identity " + label + " fails, residual {residual:.3e}")
    ds = DefectSpaces(d_basis, dt_basis, k0, kt0, d_pinv, dt_pinv, *np.linalg.eigh(k0.conj().T @ k0))
    _frozen(*vars(ds).values())
    basis.cache["defects"] = ds
    return ds


def eval0_matrix(basis: ModelSpaceBasis) -> np.ndarray:
    """Matrix of the evaluation-at-origin map, coordinates -> C^d."""
    return basis.q[: basis.inner.d, :]


def _worst_column(r: np.ndarray) -> float:
    """Largest column norm of a residual matrix; 0 when it has no columns."""
    return float(np.linalg.norm(r, axis=0).max(initial=0.0))


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
    mult_z = np.vstack([pad, q]) - np.vstack([q @ s.mat, pad])  # z f - S f, one block longer
    div_z = np.vstack([q[d:], pad]) - q @ s_adj.mat  # (f - f(0)) / z - S* f
    s_ut, s_adj_u = s.mat @ ut, s_adj.mat @ u
    return _report({
        "shift acts as multiplication off the second defect space": _worst_column(off_span(mult_z, ut)),
        "shift sends difference-quotient directions into the first defect space":
            _worst_column(s.mat @ ds.dt_frame + ds.d_frame @ theta0),
        "adjoint shift divides by z off the first defect space":
            max(_worst_column(off_span(div_z, u)), _worst_column(off_span(eval0_matrix(basis), u))),
        "adjoint shift sends kernel directions into the second defect space":
            _worst_column(s_adj.mat @ ds.d_frame + ds.dt_frame @ theta0.conj().T),
        "shift maps second defect space into first": frobenius(s_ut - u @ (u.conj().T @ s_ut)),
        "shift maps second complement into first complement": frobenius(off_span(u.conj().T @ s.mat, ut)),
        "adjoint shift maps first defect space into second": frobenius(s_adj_u - ut @ (ut.conj().T @ s_adj_u)),
        "adjoint shift maps first complement into second complement":
            frobenius(off_span(ut.conj().T @ s_adj.mat, u)),
        "defect operator is evaluation at zero followed by the kernel frame":
            frobenius(np.eye(basis.n) - s.mat @ s_adj.mat - ds.d_frame @ eval0_matrix(basis)),
    })


def j_operators(basis: ModelSpaceBasis, ds: DefectSpaces):
    """Pseudo-inverses of the two defect operators, computed once per basis.

    J satisfies (I - S S*) J = J* (I - S S*) = projector onto the first
    defect space, and likewise for the second; both identities are
    verified before they are kept.
    """
    if "j" in basis.cache:
        return basis.cache["j"]
    rcond = RANK_CUT * basis.n
    s, s_adj = s_theta(basis)
    eye = np.eye(basis.n)
    g, gt = eye - s.mat @ s_adj.mat, eye - s_adj.mat @ s.mat
    p_d, p_dt = ds.d_basis @ ds.d_basis.conj().T, ds.dt_basis @ ds.dt_basis.conj().T
    j = np.linalg.pinv(g, rcond=rcond, hermitian=True)
    jt = np.linalg.pinv(gt, rcond=rcond, hermitian=True)
    for lhs, label in (
        (g @ j - p_d, "G J"),
        (j.conj().T @ g - p_d, "J* G"),
        (gt @ jt - p_dt, "Gt Jt"),
        (jt.conj().T @ gt - p_dt, "Jt* Gt"),
    ):
        require_small(opnorm(lhs), CHECK_TOL, IdentityCheckError, f"{label} is not the defect projector")
    _frozen(j, jt)
    basis.cache["j"] = (j, jt)
    return j, jt


def xhat(basis: ModelSpaceBasis, ds: DefectSpaces, x) -> OperatorMatrix:
    """Operator acting as x (in defect coordinates) from the second
    defect space to the first, and as zero on the complement."""
    x = np.asarray(x, dtype=np.complex128)
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

    def apply(self, x) -> np.ndarray:
        return self.u @ np.conj(np.asarray(x, dtype=np.complex128))


def gamma_symmetric_residual(f: MatLaurent, gamma: Conjugation) -> float:
    """How far the coefficients are from A_k = U A_k^T U*."""
    u = gamma.u
    return max(frobenius(a - u @ a.T @ u.conj().T) for a in f.coeffs)


def conjugation_matrix(basis: ModelSpaceBasis, gamma: Conjugation) -> np.ndarray:
    """Coordinate matrix M of the model-space conjugation: C f has
    coordinates M conj(c).  C f applies gamma coefficientwise with frequency
    reversal, multiplies by Theta and shifts down once; on the window of Q
    that is one block convolution over all n columns.  The images must lie
    in the model space (no negative frequencies and L* W = 0, measured by
    `off_space` from Theta's blocks) and M must be symmetric unitary; both
    are verified."""
    inner = basis.inner
    d, m, n = inner.d, inner.m, basis.n
    if gamma.dim != d:
        raise ValueError("conjugation dimension does not match")
    require_small(gamma_symmetric_residual(inner.theta, gamma), CHECK_TOL, NotGammaSymmetricError,
                  "theta is not gamma-symmetric, residual {residual:.3e}")
    flipped = gamma.u @ np.conj(basis.q.reshape(m, d, n)[::-1])
    image = convolve(inner.blocks, flipped)  # block i sits at frequency i - m
    window = image[m:].reshape(m * d, n)
    negative = column_norms(image[:m].reshape(m * d, n))
    require_member(float(np.hypot(negative, off_space(inner, window)).max(initial=0.0)), 1.0, "conjugation")
    mat = basis.q.conj().T @ window
    for resid in (frobenius(mat.conj().T @ mat - np.eye(n)), frobenius(mat - mat.T)):
        require_small(resid, CHECK_TOL, IdentityCheckError, "conjugation matrix is not symmetric unitary")
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


def kernel_recurrence_check(basis: ModelSpaceBasis, count: int = 20, seed: int = 0) -> dict:
    """Sample the shift recurrences of the two kernel frames at `count`
    points of the disk, each on the whole frame:
    S K_lam = (K_lam - K_0) / conj(lam) and S K~_lam = lam K~_lam - K_0 Theta(lam).
    At the removable point lam = 0 the first one is S Q* W = Q* Z W for the
    closed-form kernel W = I - Theta(z) Theta(0)* on the window (the
    projected frame K_0 would satisfy it by construction)."""
    inner = basis.inner
    d, m, q = inner.d, inner.m, basis.q
    rng = np.random.default_rng(seed)
    s, _ = s_theta(basis)
    k0 = kernel_frame(basis, 0.0)
    worst_k = worst_kt = 0.0
    for _ in range(count):
        lam = 0.0
        while abs(lam) < 1e-3:  # keep away from the removable point
            lam = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) * 0.6
        klam, tlam = kernel_frame(basis, lam), tilde_kernel_frame(basis, lam)
        worst_k = max(worst_k, _worst_column(s.mat @ klam - (klam - k0) / np.conj(lam)))
        worst_kt = max(worst_kt, _worst_column(s.mat @ tlam - (lam * tlam - k0 @ inner.evaluate(lam))))
    w = np.eye(m * d, d) - inner.blocks[:m].reshape(m * d, d) @ inner.blocks[0].conj().T
    origin = s.mat @ q.conj().T @ w - q[d:].conj().T @ w[:-d]  # S Q* W - Q* Z W
    return _report({
        "kernel frame recurrence": worst_k,
        "difference-quotient frame recurrence": worst_kt,
        "origin limit via direct shift": _worst_column(origin),
    })
