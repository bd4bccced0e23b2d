"""Earlier implementations of the basis, its phase fix, the array
encoder and the Laurent membership residual, kept as test references.

`window_projector` forms I - L L* by running sums along its block
diagonals, `ModelSpaceBasis` runs Gram-Schmidt on panels of the columns
of that projector, `numerics.fix_column_phases` rotates every column in
one pass and `serialize.array_to_json` converts a whole array with one
`tolist`.  The functions below do the same work the direct way: L* as
one md x md block Toeplitz matrix (`constraint_matrix`), modified
Gram-Schmidt, twice, over the m*d columns P e_j of the projector formed
from an SVD of the constraint map, one column at a time; a phase fix
column by column; and an encoder that recurses once per scalar.
`model_space.off_space` measures membership as ||L* f|| on the window
from Theta's blocks; `membership_residual` takes it through Laurent
objects, Theta* f in full, and also sees frequencies outside the window.
`turned_off` turns an orthonormal basis of the model space off it, as
rounding can.
"""

import numpy as np

from mttokit import model_space
from mttokit.laurent import boundary_adjoint, multiply, reversed_adjoint
from mttokit.numerics import PHASE_CUT, block_toeplitz, nullspace


def constraint_matrix(theta) -> np.ndarray:
    """L*, the map sending the coefficients of a degree-<m polynomial f to
    the analytic-part coefficients of Theta* f, as an md x md block
    Toeplitz matrix; its kernel is the model space."""
    m = theta.hi
    return block_toeplitz(reversed_adjoint(theta.window(1 - m, m - 1)), m, m)  # block (k, j) is Theta_{j-k}*


def membership_residual(basis, f) -> float:
    """Distance witness for membership: energy at negative frequencies
    plus the analytic part of Theta* f."""
    g = multiply(boundary_adjoint(basis.inner.theta), f)
    return float(np.hypot(np.linalg.norm(f.coeffs[: max(-f.lo, 0)]), np.linalg.norm(g.coeffs[max(-g.lo, 0) :])))


def fix_column_phases_loop(q: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry above PHASE_CUT * max(1,
    column max) is real positive; numerically zero columns stay alone."""
    q = np.array(q, dtype=np.complex128, copy=True)
    for j in range(q.shape[1]):
        col = q[:, j]
        idx = np.flatnonzero(np.abs(col) > PHASE_CUT * max(1.0, np.abs(col).max(initial=0.0)))
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        q[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return q


def gram_schmidt_loop(inner) -> np.ndarray:
    """Basis matrix Q from Gram-Schmidt of P e_0, P e_1, ... in the m*d
    dimensional window, every column of the projector visited, a column
    kept above the same cut as the library's, `model_space.GS_CUT`."""
    d, m, n = inner.d, inner.m, inner.n
    null = nullspace(constraint_matrix(inner.theta), scale=1.0)
    assert null.shape[1] == n, "nullspace dimension disagrees with model dimension"
    proj = null @ null.conj().T
    accepted = []
    for j in range(m * d):
        v = proj[:, j].copy()
        for _ in range(2):
            for u in accepted:
                v -= u * np.vdot(u, v)
        nv = np.linalg.norm(v)
        if nv > model_space.GS_CUT:
            accepted.append(v / nv)
    assert len(accepted) == n, f"found {len(accepted)} directions, expected {n}"
    return fix_column_phases_loop(np.column_stack(accepted))


def array_to_json_recursive(a):
    """Nested row-major lists with [re, im] leaves, one call per scalar."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        z = complex(a[()])
        return [float(z.real), float(z.imag)]
    return [array_to_json_recursive(sub) for sub in a]


def _unit(rng, size):
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return v / np.linalg.norm(v)


def turned_off(q, angle=1e-4, seed=0):
    """The orthonormal columns q with their span turned by `angle` off the
    model space they span: a random direction q c is rotated towards a
    random window direction w orthogonal to the span, q -> q + ((cos - 1)
    q c + sin w) c*, and the columns stay orthonormal."""
    rng = np.random.default_rng(seed)
    outside = np.linalg.qr(q, mode="complete")[0][:, q.shape[1] :]
    c, w = _unit(rng, q.shape[1]), outside @ _unit(rng, outside.shape[1])
    return q + np.outer((np.cos(angle) - 1) * (q @ c) + np.sin(angle) * w, c.conj())
