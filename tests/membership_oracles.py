"""Membership references kept outside the package.

The compressed defect identities are taken here from an orthonormal
complement of each kernel frame that a complete QR factorization gives,
with the compressed shift assembled again from the basis, so nothing
below reads the package's defect data.  `spectral_decision` is the rule
is_mtto applied before it decided in the Frobenius norm: the larger
spectral norm of the two compressions against REL times the spectral
norm of A.  `class_span` is the operator class by brute force, the
orthonormal span of the operators of the unit symbols E_ij z^t.
`split_decision` is is_mtto as it was before it decided on one identity:
both identities split over their kernel frames on every call, the residual
the larger of the two.  `non_member` is randgen.random_non_member with the
starred identity B - S* B S written out.
"""

from dataclasses import dataclass

import numpy as np

from mttokit.laurent import MatLaurent
from mttokit.model_operator import defect_spaces, s_theta
from mttokit.model_space import kernel_frame, tilde_kernel_frame
from mttokit.mtto import build, is_mtto
from mttokit.numerics import REL, RANK_CUT, frobenius, opnorm
from mttokit.randgen import MIN_DEFECT


def complement(frame: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the columns of a
    full-rank n x d frame, from a complete QR factorization."""
    q, _ = np.linalg.qr(frame, mode="complete")
    return q[:, frame.shape[1]:]


def _shift(basis) -> np.ndarray:
    d = basis.inner.d
    return basis.q.conj().T @ np.eye(basis.q.shape[0], k=-d) @ basis.q


def compressed_defects(basis, a: np.ndarray):
    """C* (A - S A S*) C and Ct* (A - S* A S) Ct, with C and Ct the
    complements of the kernel frames at the origin."""
    s = _shift(basis)
    c = complement(kernel_frame(basis, 0.0))
    ct = complement(tilde_kernel_frame(basis, 0.0))
    delta = a - s @ a @ s.conj().T
    delta_tilde = a - s.conj().T @ a @ s
    return c.conj().T @ delta @ c, ct.conj().T @ delta_tilde @ ct


def spectral_decision(basis, a: np.ndarray):
    """(verdict, residual, tol) of the membership rule in the spectral norm."""
    residual = max(np.linalg.norm(e, 2) if e.size else 0.0 for e in compressed_defects(basis, a))
    tol = REL * np.linalg.norm(a, 2)
    return bool(residual <= tol), float(residual), float(tol)


def class_span(basis) -> np.ndarray:
    """Orthonormal columns spanning vec of every operator in the class:
    the operators of E_ij z^t for |t| < m, orthonormalized by SVD."""
    d, m, n = basis.inner.d, basis.inner.m, basis.n
    cols = []
    for t in range(1 - m, m):
        for i in range(d):
            for j in range(d):
                unit = np.zeros((1, d, d))
                unit[0, i, j] = 1.0
                cols.append(build(basis, MatLaurent(t, unit)).mat.reshape(-1))
    u, s, _ = np.linalg.svd(np.array(cols).T, full_matrices=False)
    return u[:, : int(np.sum(s > RANK_CUT * s[0] * max(n * n, len(cols))))]


def class_distance(span: np.ndarray, a: np.ndarray) -> float:
    """Frobenius distance from A to the class spanned by `span`."""
    v = a.reshape(-1)
    return float(np.linalg.norm(v - span @ (span.conj().T @ v)))


@dataclass
class Split:
    """Delta = X K* + K Y* up to `residual`."""

    x: np.ndarray
    y: np.ndarray
    residual: float


@dataclass
class SplitDecision:
    verdict: bool
    residual: float
    tol: float
    witness: Split
    witness_tilde: Split


def frame_split(delta: np.ndarray, frame: np.ndarray, kp: np.ndarray) -> Split:
    """X = (I - K K+) Delta K+*, Y = (Delta - X K*)* K+*; the residual is
    ||Delta - X K* - K Y*||_F = ||P Delta P||_F with P = I - K K+."""
    x = (delta - frame @ (kp @ delta)) @ kp.conj().T
    y = (delta - x @ frame.conj().T).conj().T @ kp.conj().T
    return Split(x, y, frobenius(delta - x @ frame.conj().T - frame @ y.conj().T))


def split_decision(basis, a: np.ndarray, tol=None) -> SplitDecision:
    """Membership by splitting both defect identities over the cached
    kernel frames and their left inverses; norms are taken by the
    package's scale-safe `frobenius`."""
    if tol is None:
        tol = REL * frobenius(a)
    s, s_adj = (op.mat for op in s_theta(basis))
    ds = defect_spaces(basis)
    witness = frame_split(a - s @ a @ s_adj, ds.d_frame, ds.d_pinv)
    witness_tilde = frame_split(a - s_adj @ a @ s, ds.dt_frame, ds.dt_pinv)
    residual = max(witness.residual, witness_tilde.residual)
    return SplitDecision(bool(residual <= tol), residual, float(tol), witness, witness_tilde)


def non_member(basis, rng) -> np.ndarray:
    """B - S* B S for B Gaussian on the complement of the first defect
    space, scaled to unit norm, drawn until its membership residual is at
    least MIN_DEFECT, at most 64 times: the draws of random_non_member,
    one for one."""
    u = defect_spaces(basis).d_basis
    comp = np.linalg.qr(u, mode="complete")[0][:, u.shape[1]:]
    k = comp.shape[1]
    s, s_adj = (op.mat for op in s_theta(basis))
    for _ in range(64):
        c = rng.standard_normal(k * k) + 1j * rng.standard_normal(k * k)
        b = comp @ c.reshape(k, k) @ comp.conj().T
        a = b - s_adj @ b @ s
        nrm = opnorm(a)
        if nrm >= 1e-12 and is_mtto(basis, a / nrm).residual >= MIN_DEFECT:
            return a / nrm
    raise AssertionError("no candidate reached MIN_DEFECT")
