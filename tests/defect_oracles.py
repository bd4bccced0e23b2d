"""Earlier routes to the defect data, kept as test references.

`frame_basis_and_inverse` takes a kernel frame's basis and left inverse
the earlier way: a thin SVD with the rank cut of `numerics.rank` and the
phase fix for the basis, and numpy's pinv for the left inverse.
`defect_identities` forms the two dense identities `defect_spaces` once
checked on every basis, I - S S* = K0 K0* and I - S* S = K0~ K0~*, with
the bound it used.  `frame_check_windows` builds the window elements that
`defect_spaces` compares Q K0 and Q K0~ with, one column at a time, from
the closed-form kernels at 0.  `pinv_j` takes J and J~ the earlier way, as
numpy's pinv of the dense defect operators, and `j_identities` forms the
four identities `j_operators` once checked on J and J~ before keeping them.
"""

import numpy as np

from mttokit.model_operator import defect_spaces, j_operators, s_theta
from mttokit.model_space import kernel, tilde_kernel
from mttokit.numerics import CHECK_TOL, RANK_CUT, REL, fix_column_phases, opnorm


def frame_basis_and_inverse(frame: np.ndarray):
    u, s, _ = np.linalg.svd(frame, full_matrices=False)
    r = int(np.sum(s > RANK_CUT * s[0] * max(frame.shape)))
    return fix_column_phases(u[:, :r]), np.linalg.pinv(frame, rcond=RANK_CUT * max(frame.shape))


def _defect_operators(basis):
    """The dense I - S S* and I - S* S."""
    s, s_adj = s_theta(basis)
    eye = np.eye(basis.n)
    return eye - s @ s_adj, eye - s_adj @ s


def defect_identities(basis):
    """(residual, bound) of each defect identity: ||G - K K*||_F against
    REL * max(1, ||G||_F), for G = I - S S* with K0 and G = I - S* S with K0~."""
    ds = defect_spaces(basis)
    out = []
    for g, frame in zip(_defect_operators(basis), (ds.d_frame, ds.dt_frame)):
        out.append((float(np.linalg.norm(g - frame @ frame.conj().T)), REL * max(1.0, float(np.linalg.norm(g)))))
    return out


def frame_check_windows(inner):
    """Window columns (md x d) of the kernel at 0 and of the difference
    quotient at 0 applied to e_1, ..., e_d."""
    eye = np.eye(inner.d)
    return [np.stack([fn(inner, 0.0, e)[0].reshape(-1) for e in eye], axis=1)
            for fn in (kernel, tilde_kernel)]


def frame_check_residuals(basis):
    """Largest column norm of Q K0 - W and of Q K0~ - W~, the residuals
    `defect_spaces` holds to CHECK_TOL."""
    ds = defect_spaces(basis)
    return [float(np.linalg.norm(basis.q @ frame - w, axis=0).max())
            for frame, w in zip((ds.d_frame, ds.dt_frame), frame_check_windows(basis.inner))]


def pinv_j(basis):
    """(J, J~) as the pseudo-inverses of the dense defect operators, with
    the rank cut RANK_CUT * n."""
    return tuple(np.linalg.pinv(g, rcond=RANK_CUT * basis.n, hermitian=True) for g in _defect_operators(basis))


def j_identities(basis):
    """(label, residual, bound) of G J = J* G = U U* for G = I - S S* and
    the first defect space, and of the same for I - S* S, J~ and the
    second, in the spectral norm against CHECK_TOL * max(1, ||J||)."""
    ds, (j, jt) = defect_spaces(basis), j_operators(basis)
    out = []
    for g, jj, u, label in zip(_defect_operators(basis), (j, jt), (ds.d_basis, ds.dt_basis), ("G", "Gt")):
        p, bound = u @ u.conj().T, CHECK_TOL * max(1.0, opnorm(jj))
        out += [(f"{label} J", opnorm(g @ jj - p), bound), (f"J* {label}", opnorm(jj.conj().T @ g - p), bound)]
    return out
