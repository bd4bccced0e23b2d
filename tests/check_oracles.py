"""Earlier implementation of the shift-action check, kept as a test reference.

`model_operator.action_check` states each identity as one residual over
the window matrix of the whole basis.  The function below tests the same
identities the direct way: one column at a time, through Laurent objects
and the closed-form kernels, taking the worst column norm; an identity off
a defect space runs over the columns of the n x n projector I - U U*, U
the defect basis.  The four mapping identities and the defect-operator
identity are whole-matrix residuals in the Frobenius norm, with the
projectors and I - S S* formed as n x n matrices.
"""

import numpy as np

from mttokit.laurent import VecLaurent
from mttokit.model_operator import defect_spaces, s_theta

from element_oracles import element_coords, kernel_element, tilde_kernel_element
from suite_oracles import from_coords


def _backshift(f: VecLaurent) -> VecLaurent:
    """(f - f(0)) / z for analytic f."""
    g = f - VecLaurent.constant(f.coeff(0))
    return VecLaurent(g.lo - 1, g.coeffs)


def action_check_loop(basis) -> dict:
    """Name -> residual for the nine identities of `action_check`."""
    inner = basis.inner
    d = inner.d
    s, s_adj = s_theta(basis)
    ds = defect_spaces(basis)
    n_eye = np.eye(basis.n)
    p_d, p_dt = ds.d_basis @ ds.d_basis.conj().T, ds.dt_basis @ ds.dt_basis.conj().T
    comp_d, comp_dt = n_eye - p_d, n_eye - p_dt  # columns off each defect space
    theta0 = inner.theta.coeff(0)
    eye = np.eye(d)
    checks = {}

    worst = 0.0
    for j in range(comp_dt.shape[1]):
        f = from_coords(basis, comp_dt[:, j])
        sf = from_coords(basis, s @ comp_dt[:, j])
        worst = max(worst, (VecLaurent(f.lo + 1, f.coeffs) - sf).norm())
    checks["shift acts as multiplication off the second defect space"] = worst

    worst = 0.0
    for i in range(d):
        lhs = s @ ds.dt_frame[:, i]
        rhs = -element_coords(basis, kernel_element(inner, 0.0, theta0 @ eye[:, i]))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    checks["shift sends difference-quotient directions into the first defect space"] = worst

    worst = 0.0
    for j in range(comp_d.shape[1]):
        f = from_coords(basis, comp_d[:, j])
        bf = from_coords(basis, s_adj @ comp_d[:, j])
        worst = max(worst, (_backshift(f) - bf).norm())
        worst = max(worst, float(np.linalg.norm(f.coeff(0))))  # those f vanish at 0
    checks["adjoint shift divides by z off the first defect space"] = worst

    worst = 0.0
    for i in range(d):
        lhs = s_adj @ ds.d_frame[:, i]
        rhs = -element_coords(basis, tilde_kernel_element(inner, 0.0, theta0.conj().T @ eye[:, i]))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    checks["adjoint shift sends kernel directions into the second defect space"] = worst

    # the mapping identities and the defect-operator identity in the Frobenius norm
    norm = np.linalg.norm
    checks["shift maps second defect space into first"] = norm(comp_d @ s @ p_dt)
    checks["shift maps second complement into first complement"] = norm(p_d @ s @ comp_dt)
    checks["adjoint shift maps first defect space into second"] = norm(comp_dt @ s_adj @ p_d)
    checks["adjoint shift maps first complement into second complement"] = norm(p_dt @ s_adj @ comp_d)
    checks["defect operator is evaluation at zero followed by the kernel frame"] = norm(
        n_eye - s @ s_adj - ds.d_frame @ basis.q[: basis.inner.d]
    )
    return checks
