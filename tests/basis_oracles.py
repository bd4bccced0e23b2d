"""Earlier implementations of the basis, its phase fix, the array
encoder and the Laurent membership residual, kept as test references.

`window_projector` forms I - L L* by running sums along its block
diagonals, `ModelSpaceBasis` runs Gram-Schmidt on panels of the columns
of that projector, `numerics.fix_column_phases` rotates every column in
one pass and `serialize.array_to_json` converts a whole array with one
`tolist`.  The functions below do the same work the direct way: L* as
one md x md block Toeplitz matrix (`constraint_matrix`), modified
Gram-Schmidt, twice, over the m*d columns P e_j of the projector formed
from an SVD of the constraint map, one column at a time
(`gram_schmidt_columns`); a phase fix column by column; and an encoder
that recurses once per scalar.
`model_space.off_space` measures membership as ||L* f|| on the window
from Theta's blocks; `membership_residual` takes it through Laurent
objects, Theta* f in full, and also sees frequencies outside the window.
`turned_off` turns an orthonormal basis of the model space off it, as
rounding can, `theta1_moved` moves Theta_1 under a built basis, and
`potapov_cell` draws the factors of the benchmark's large cells; SEEDED
lists the seeded random spaces the basis tests share.
"""

import copy
import functools

import numpy as np

from mttokit import model_space
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply, reversed_adjoint
from mttokit.numerics import PHASE_TIE, fix_column_phases
from mttokit.randgen import haar_unitary

from dimension_oracles import anchored_cut
from product_oracles import block_toeplitz

# (d, m, seed) of seeded random spaces; the last has n >= 120
SEEDED = [(1, 4, 11), (2, 3, 12), (3, 5, 13), (4, 12, 14), (6, 40, 15)]


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
    """Rotate each column so its first entry within PHASE_TIE of the
    column's largest magnitude is real positive; a column with no non-zero
    entry stays alone."""
    q = np.array(q, dtype=np.complex128, copy=True)
    for j in range(q.shape[1]):
        col = q[:, j]
        mags = [abs(x) for x in col]
        if not any(mags):
            continue
        pivot = next(x for x, mag in zip(col, mags) if mag >= (1.0 - PHASE_TIE) * max(mags))
        q[:, j] = col * (np.conj(pivot) / np.abs(pivot))
    return q


def gram_schmidt_loop(inner) -> np.ndarray:
    """Basis matrix Q from Gram-Schmidt of P e_0, P e_1, ... in the m*d
    dimensional window, every column of the projector visited, a column
    kept above the same cut as the library's, `model_space.GS_CUT`
    (`gram_schmidt_columns`)."""
    d, m, n = inner.d, inner.m, inner.n
    c = constraint_matrix(inner.theta)
    _, s, vh = np.linalg.svd(c)
    null = fix_column_phases(vh[anchored_cut(s, c.shape):].conj().T)
    assert null.shape[1] == n, "nullspace dimension disagrees with model dimension"
    accepted = gram_schmidt_columns(null @ null.conj().T)
    assert accepted.shape[1] == n, f"found {accepted.shape[1]} directions, expected {n}"
    return fix_column_phases_loop(accepted)


def gram_schmidt_columns(a) -> np.ndarray:
    """Gram-Schmidt over the columns of a in order, one column at a time:
    each is projected twice against the directions kept so far, one
    vector at a time, and kept, normalized, when what is left of it
    exceeds `model_space.GS_CUT`.  The directions are the columns of the
    result, with no phase fixed."""
    accepted = []
    for j in range(a.shape[1]):
        v = np.array(a[:, j], dtype=np.complex128)
        for _ in range(2):
            for u in accepted:
                v -= u * np.vdot(u, v)
        nv = np.linalg.norm(v)
        if nv > model_space.GS_CUT:
            accepted.append(v / nv)
    return np.column_stack(accepted) if accepted else np.zeros((a.shape[0], 0), dtype=np.complex128)


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


def theta1_moved(basis, rng):
    """A copy of a built basis whose Theta_1 is moved by 1e-6, the basis Q
    kept, with no cached data: neither the basis's nor what the
    InnerFunction derives from its blocks (Theta*'s blocks and the like)."""
    inner = copy.copy(basis.inner)
    for name, attr in vars(model_space.InnerFunction).items():
        if isinstance(attr, functools.cached_property):
            inner.__dict__.pop(name, None)
    blocks = inner.blocks.copy()
    blocks[1] += 1e-6 * (rng.standard_normal(blocks[1].shape) + 1j * rng.standard_normal(blocks[1].shape))
    inner.theta, inner.blocks = MatLaurent(0, blocks), blocks
    moved = copy.copy(basis)
    moved.inner, moved.cache = inner, {}
    return moved


def potapov_cell(d, ranks, seed):
    """(factors, U) as `perfbench/workloads.random_potapov` draws them from
    seed: U and the projections onto the first r columns of Haar unitaries,
    drawn again until ||Theta(0)|| <= 0.95.  Rank-3 factors at d = 6, 80 of
    them, give the n = 240 cell."""
    rng = np.random.default_rng(seed)
    while True:
        u = haar_unitary(d, rng)
        frames = [haar_unitary(d, rng)[:, :r] for r in ranks]
        factors = [f @ f.conj().T for f in frames]
        value0 = u
        for p in factors:
            value0 = value0 @ (np.eye(d) - p)
        if np.linalg.norm(value0, 2) <= 0.95:
            return factors, u
