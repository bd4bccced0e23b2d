"""Model spaces of polynomial matrix inner functions.

For an inner Theta of degree m with values in the d x d matrices, the
model space is the orthogonal complement of Theta H^2 inside H^2 of
C^d-valued functions.  Because every zero of Theta sits at the origin,
z^m H^2 is contained in Theta H^2 and the whole space embeds in the
polynomials of degree < m; all computations happen in that m*d
dimensional coefficient window, where the orthogonal projector onto the
space is I - L L* with L the block Toeplitz matrix of Theta.  No SVD is
needed: n is trace P, read off Theta's blocks.  The basis follows the
payload.  A Potapov product Theta = U B_1 ... B_k, B_j = I - P_j + z P_j,
keeps its factors, and K_Theta is the orthogonal sum of the spaces
U B_1 ... B_(j-1) ran P_j (V. P. Potapov, "The multiplicative structure
of J-contractive matrix functions", 1955), so its basis is read off the
running products with no md x md array.  A coefficient payload has no
factors; its basis is Gram-Schmidt over the columns of P, which only that
route forms.  Both routes keep a direction by one step, `_kept`, which
normalizes no residual below GS_CUT = 1 / MAX_WINDOW: on each P_j for
the factor frames, on each panel of P for the coefficient route.
Membership of a window element f is ||L* f||, read by `off_space`, which
also measures the basis of either route; a basis above the gate is
repaired as qr(P Q), with P formed for that product alone.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import serialize
from .errors import (
    IdentityCheckError,
    NotInnerError,
    NotProjectionError,
    NotPureError,
    NotUnitaryError,
    ParseError,
)
from .laurent import (
    MatLaurent,
    convolve,
    evaluate,
    inner_residual,
    is_pure,
    reversed_adjoint,
)
from .numerics import (CHECK_TOL, DET_TOL, INNER_TOL, INPUT_TOL, TRACE_TOL, column_norms, fix_column_phases, frobenius,
                       frozen, require_small)

MAX_WINDOW = 2048  # largest m*d coefficient window a model space is built on
PANEL = 64  # projector columns orthogonalized per block step of the basis
GS_CUT = 1 / MAX_WINDOW  # the basis keeps a projected column whose residual norm exceeds GS_CUT
OFF_ULPS = 64  # a basis column may lie OFF_ULPS * m*d * eps off the model space before it is re-projected


def _require_window(m: int, d: int) -> None:
    if m * d > MAX_WINDOW:
        raise ParseError(f"coefficient window m*d = {m} * {d} exceeds the limit of {MAX_WINDOW} coordinates")


def det_degree(theta: MatLaurent) -> int:
    """Degree of det Theta(z), read off one point inside the disk.

    For a pure polynomial inner Theta, det Theta(z) = c z^n with |c| = 1, so
    n = -m log|det Theta(r)| at r = e^(-1/m), where ||Theta(r)^-1|| <= r^-m = e
    (Theta(z) z^m Theta(1/conj z)* = z^m I): one `evaluate` and one `slogdet`.
    A reading not finite or not within DET_TOL of an integer is refused.
    """
    if theta.lo < 0:
        raise ValueError("determinant degree needs an analytic argument")
    m = theta.hi
    r = np.exp(-1.0 / max(m, 1))  # a constant Theta (m = 0) reads 0
    reading = -m * float(np.linalg.slogdet(evaluate(theta, r))[1])
    miss = abs(reading - round(reading)) if np.isfinite(reading) else reading
    require_small(miss, DET_TOL, IdentityCheckError,
                  f"det degree reading {reading!r} is not within {DET_TOL} of an integer")
    return int(round(reading))


def window_projector(blocks: np.ndarray) -> np.ndarray:
    """Orthogonal projector P = I - L L* onto the model space, on the
    coefficient window of an inner Theta with blocks Theta_0, ..., Theta_m.

    L is the lower block-triangular Toeplitz matrix of Theta_0, ...,
    Theta_{m-1}: T_Theta is an isometry and z^m H^2 lies in Theta H^2, so
    the compression of T_Theta T_Theta* to the window is L L*, and it is
    the projector onto Theta H^2 there.  Block (k, j) of L L* is
    G_kj = G_{k-1,j-1} + Theta_k Theta_j*, so one product of the stacked
    blocks and a running sum along the block diagonals give it.
    """
    m, d = blocks.shape[0] - 1, blocks.shape[1]
    stacked = blocks[:m].reshape(m * d, d)
    g = (stacked @ stacked.conj().T).reshape(m, d, m, d)  # block (k, j) is Theta_k Theta_j*
    for k in range(1, m):
        g[k, :, 1:] += g[k - 1, :, :-1]
    p = np.negative(g, out=g).reshape(m * d, m * d)
    p[np.diag_indices(m * d)] += 1.0
    return p


class InnerFunction:
    """A validated pure polynomial matrix inner function.

    Construction checks the coefficient identities for unitarity on the
    circle and strict contractivity at the origin, and measures the model
    space dimension n independently as the trace of the window projector
    P = I - L L* (which must lie within m*d*TRACE_TOL of an integer) and
    as the degree of det Theta, read at one interior point; for a Potapov
    product it also takes the sum of the factor ranks, and the basis counts
    its directions.  It refuses to continue unless all of them agree.
    Diagonal block k of L L* is the sum over i <= k of Theta_i Theta_i*,
    so trace P = m*d - sum over k < m of (m - k) ||Theta_k||_F^2, with no
    P formed.  A window wider than MAX_WINDOW
    coordinates is refused before anything is allocated.  `blocks` holds
    Theta_0, ..., Theta_m as one read-only (m+1, d, d) array; `factors` is
    (U, the read-only (k, d, d) stack of the P_j, their ranks) as
    `potapov_product` returns them for a Potapov payload, which
    `ModelSpaceBasis` reads, and None for a coefficient payload;
    `adjoint_blocks`, `tail_inverse` are lazy.
    """

    def __init__(self, theta: MatLaurent, factors=None):
        if theta.lo < 0:
            raise NotInnerError("inner functions must be analytic")
        _require_window(theta.hi, theta.dim)
        require_small(inner_residual(theta), INNER_TOL, NotInnerError, "coefficient unitarity residual {residual:.3e}")
        if not is_pure(theta):
            raise NotPureError("value at the origin is not a strict contraction")
        self.theta = theta
        self.factors = factors
        self.d = theta.dim
        self.m = theta.hi
        self.blocks = theta.window(0, self.m)  # Theta_0, ..., Theta_m
        frozen(self.blocks)
        norms = np.sum(np.abs(self.blocks[: self.m]) ** 2, axis=(1, 2))  # ||Theta_k||_F^2, k < m
        trace = self.m * self.d - float(np.arange(self.m, 0, -1) @ norms)  # trace of P = I - L L*
        tol = self.m * self.d * TRACE_TOL
        require_small(abs(trace - round(trace)), tol, IdentityCheckError,
                      f"projector trace {trace!r} is not within {tol:.1e} of an integer")
        witnesses = {"projector trace": int(round(trace)), "det degree": det_degree(theta)}
        if factors is not None:
            witnesses["factor rank sum"] = int(factors[2].sum())
        if len(set(witnesses.values())) != 1:
            raise IdentityCheckError(
                "model dimension mismatch: " + ", ".join(f"{k} {v}" for k, v in witnesses.items())
            )
        self.n = witnesses["projector trace"]

    def __repr__(self):
        return f"InnerFunction(d={self.d}, m={self.m}, n={self.n})"

    @cached_property
    def adjoint_blocks(self) -> np.ndarray:
        """The blocks of Theta(z)*, (Theta_m)*, ..., (Theta_0)* at frequencies -m..0."""
        out = reversed_adjoint(self.blocks)
        frozen(out)
        return out

    @cached_property
    def tail_inverse(self) -> np.ndarray:
        """R^-1 Q*, the left inverse of [Theta_1; ...; Theta_m] = QR, of rank d
        for pure Theta: its Gram matrix is I - Theta_0* Theta_0."""
        q, r = np.linalg.qr(self.blocks[1:].reshape(self.m * self.d, self.d))
        out = np.linalg.solve(r, q.conj().T)
        frozen(out)
        return out


def _advance(h: np.ndarray, j: int, p: np.ndarray) -> None:
    """Turn the blocks h[:j] of H_(j-1) into the blocks h[:j+1] of
    H_j = H_(j-1) (I - P) + z H_(j-1) P in place: H_(j-1) P is one product,
    subtracted at each frequency and added one frequency up."""
    d = p.shape[0]
    high = (h[:j].reshape(j * d, d) @ p).reshape(j, d, d)
    h[:j] -= high
    h[1 : j + 1] += high


def potapov_product(factors, left_unitary=None):
    """Validate the factors of U (I - P_1 + z P_1) ... (I - P_k + z P_k) and
    multiply them out; purity is not checked.  Returns (Theta, (U, P,
    ranks)): P the read-only (k, d, d) stack of the P_j and ranks their
    traces rounded, read off one batched trace.  The Hermitian and
    idempotent residuals of every factor are the columns of one
    `column_norms`.  The running product H_j = U B_1 ... B_j lives in one
    (k+1, d, d) array that `_advance` turns by one matrix product per
    factor.  k*d > MAX_WINDOW is refused before any product, even if
    U P_1 ... P_k = 0.  Theta's coefficients are read-only, as U, P and
    the ranks are."""
    mats = [np.asarray(p, dtype=np.complex128) for p in factors]
    if not mats:
        raise ValueError("need at least one factor")
    d = mats[0].shape[0]
    u = np.eye(d, dtype=np.complex128) if left_unitary is None else np.array(left_unitary, dtype=np.complex128)
    if u.shape != (d, d):
        raise NotUnitaryError(f"left unitary must be {d} x {d}")
    if any(p.shape != (d, d) for p in mats):
        raise NotProjectionError("factor dimensions disagree")
    _require_window(len(mats), d)
    ps, k = np.stack(mats), len(mats)
    with np.errstate(all="ignore"):  # an overflow leaves an inf or nan residual, refused below
        unitary = frobenius(u.conj().T @ u - np.eye(d))
        residuals = np.concatenate([ps - ps.conj().transpose(0, 2, 1), ps @ ps - ps])  # Hermitian, then idempotent
        projection = column_norms(residuals.reshape(2 * k, d * d).T).max()
    require_small(unitary, INPUT_TOL, NotUnitaryError, "left factor is not unitary")
    require_small(projection, INPUT_TOL, NotProjectionError, "factor is not an orthogonal projection")
    ranks = np.rint(np.trace(ps, axis1=1, axis2=2).real).astype(np.int64)
    h = np.zeros((k + 1, d, d), dtype=np.complex128)
    h[0] = u
    for j, p in enumerate(ps, start=1):
        _advance(h, j, p)
    frozen(h, u, ps, ranks)
    return MatLaurent(0, h), (u, ps, ranks)


def make_inner_potapov(factors, left_unitary=None) -> InnerFunction:
    """The inner function `potapov_product` multiplies out, keeping its
    factors; its model space has dimension sum rank P_j."""
    return InnerFunction(*potapov_product(factors, left_unitary))


def theta_from_json(obj):
    """(Theta, its Potapov factors or None) of an inner-function payload, its window
    within MAX_WINDOW; Theta is multiplied out but not checked to be pure inner."""
    serialize.check_schema_version(obj)
    try:
        kind = obj["kind"]
    except (KeyError, TypeError) as exc:
        raise ParseError("inner function payload needs a 'kind' field") from exc
    if kind == "potapov":
        raw = obj.get("factors")
        if isinstance(raw, list) and raw and isinstance(raw[0], list):  # refused before any factor is parsed
            _require_window(len(raw), len(raw[0]))
        try:
            factors = [serialize.json_to_matrix(p) for p in obj["factors"]]
            u = serialize.json_to_matrix(obj["left_unitary"]) if obj.get("left_unitary") is not None else None
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad potapov payload: {exc}") from exc
        if not factors:
            raise ParseError("potapov payload needs at least one factor")
        return potapov_product(factors, u)
    if kind == "coeffs":
        if "laurent" not in obj:
            raise ParseError("coeffs payload needs a 'laurent' field")
        theta = serialize.json_to_mat_laurent(obj["laurent"])
        _require_window(theta.hi, theta.dim)
        return theta, None
    raise ParseError(f"unknown inner function kind {kind!r}")


def _triangular_sweep(r: np.ndarray, room: int) -> np.ndarray:
    """Directions, in the coordinates of the rows of the upper triangular
    r, that Gram-Schmidt keeps from the columns of r in order, at most room
    of them.  Up to the first column with |r_jj| <= GS_CUT they are the
    coordinate axes.  That column is dropped; the later columns keep only
    their rows from it on, which is their part outside the axes kept, and
    those left of norm <= GS_CUT before the first larger one are dropped
    as well.  The rest is factored again by QR and swept the same way."""
    axes = np.eye(r.shape[0], dtype=np.complex128)
    kept = []
    while True:
        small = np.flatnonzero(np.abs(np.diagonal(r)) <= GS_CUT)
        stop = int(small[0]) if small.size else r.shape[1]
        kept.append(axes[:, : min(stop, room)])
        room -= kept[-1].shape[1]
        rest = r[stop:, stop + 1 :]  # what the later columns have outside the axes kept
        big = np.flatnonzero(column_norms(rest) > GS_CUT)  # the columns before big[0] are dropped too
        if not room or not big.size:
            return np.concatenate(kept, axis=1)
        w, r = np.linalg.qr(rest[:, big[0] :])
        axes = axes[:, stop:] @ w


def _kept(frames: np.ndarray, rs: np.ndarray, rooms) -> list:
    """The one keep step of both basis routes, over a stack of QR factors
    frame @ r: the first room directions of in-order Gram-Schmidt over the
    factored columns, a column kept when its residual norm exceeds GS_CUT,
    fewer when the columns run out.  Up to the first |r_jj| <= GS_CUT the
    directions are the frame's columns; a stack entry with such a column
    among its first room is swept further on its r (`_triangular_sweep`).
    The test on every diagonal is one batched comparison."""
    small = np.abs(np.diagonal(rs, axis1=1, axis2=2)) <= GS_CUT
    return [frame @ _triangular_sweep(r, room) if skips[:room].any() else frame[:, :room]
            for frame, r, skips, room in zip(frames, rs, small, rooms)]


def _panel_gram_schmidt(p: np.ndarray, n: int) -> np.ndarray:
    """The first n directions of in-order Gram-Schmidt over the columns of
    p, a column kept when its residual norm exceeds GS_CUT; fewer when the
    columns run out.  Each panel of PANEL columns is projected twice
    against the directions kept so far, by two products per pass, and
    factored by one Householder QR: its columns are the panel's
    Gram-Schmidt directions up to phase, and |R_jj| are the residual
    norms, up to the first skipped column.  The panel, as a stack of one,
    goes through the one keep step, `_kept`."""
    q = np.zeros((p.shape[0], n), dtype=np.complex128)
    k = 0
    for start in range(0, p.shape[1], PANEL):
        if k == n:
            break
        panel = p[:, start : start + PANEL]
        for _ in range(2 if k else 0):  # the second pass restores orthogonality
            panel = panel - q[:, :k] @ (q[:, :k].conj().T @ panel)
        kept = _kept(*np.linalg.qr(panel[np.newaxis]), [n - k])[0]
        q[:, k : k + kept.shape[1]] = kept
        k += kept.shape[1]
    return q[:, :k]


def _factor_basis(inner: InnerFunction) -> np.ndarray:
    """The columns U B_1 ... B_(j-1) V_j, group j in window blocks 0..j-1,
    for the factors of a Potapov payload.  V_j is the first r_j
    Gram-Schmidt directions of the columns of P_j: one batched QR of every
    P_j goes through the one keep step, `_kept`.  One loop writes each group
    from the running product H_(j-1) and advances it (`_advance`).  A factor
    count k above m (Theta's top blocks cancel exactly) leaves blocks past
    the window that vanish on K_Theta; they are dropped."""
    u, ps, ranks = inner.factors
    frames = _kept(*np.linalg.qr(ps), ranks)
    k, d = ps.shape[:2]
    q = np.zeros((k * d, sum(v.shape[1] for v in frames)), dtype=np.complex128)
    h = np.zeros((k + 1, d, d), dtype=np.complex128)
    h[0], col = u, 0
    for j, (p, v) in enumerate(zip(ps, frames), start=1):
        q[: j * d, col : col + v.shape[1]] = h[:j].reshape(j * d, d) @ v
        col += v.shape[1]
        _advance(h, j, p)
    return q[: inner.m * d]


class ModelSpaceBasis:
    """Deterministic orthonormal basis of the model space, by the payload's one route.

    A Potapov payload's basis is read off its factors (`_factor_basis`):
    multiplication by the inner U B_1 ... B_(j-1) is an isometry, so the
    groups H_(j-1) V_j are orthonormal and mutually orthogonal, and they
    span K_Theta, n = sum r_j columns with no projector and no rank cut.
    A coefficient payload's basis is Gram-Schmidt of the columns P e_j of
    the window projector, in order: each column is projected twice against
    the directions kept so far and kept when what is left exceeds GS_CUT,
    and the sweep stops at n (`_panel_gram_schmidt` runs this rule a panel
    of columns at a time).  Both routes keep their directions by the one
    keep step, `_kept`: the factor frames V_j and each panel.  GS_CUT is
    1 / MAX_WINDOW: the final residuals of the at most m*d skipped columns
    square-sum to n minus the count kept, which is then below 1, so n are
    kept; and no direction is normalized from a residual below the cut,
    which bounds how much one step magnifies the rounding of P.  It bounds
    one step, not a chain, so each basis, of either route, is measured
    once, ||L* q|| per column by `off_space`: above OFF_ULPS * m*d * eps
    (no generic Theta is), Q becomes the Q factor of P Q, measured again
    by `off_space` and refused if still so.  Each column is then rotated
    so its pivot, the first entry within PHASE_TIE of its largest
    magnitude, is real positive, and signed zeros are made positive, so
    the same payload always yields the same bytes.  The basis is named by
    `basis_id`, which makes operator matrices comparable across runs.
    """

    def __init__(self, inner: InnerFunction):
        self.inner = inner
        if inner.factors is None:
            q = _panel_gram_schmidt(window_projector(inner.blocks), inner.n)
        else:
            q = _factor_basis(inner)
        if q.shape[1] != inner.n:
            raise IdentityCheckError(
                f"model dimension mismatch: basis column count {q.shape[1]}, projector trace {inner.n}"
            )
        gate = OFF_ULPS * inner.m * inner.d * np.finfo(np.float64).eps
        if off_space(inner, q).max() > gate:  # rounding compounded over near-cut columns
            q = np.linalg.qr(window_projector(inner.blocks) @ q)[0]
            require_small(off_space(inner, q).max(), gate, IdentityCheckError,
                          "basis left the model space, max ||L* q|| {residual:.3e} after re-projection")
        self.q = fix_column_phases(q) + 0.0  # adding +0.0 turns every -0.0 into +0.0
        frozen(self.q)
        self.cache = {}  # read-only operator data of this space, filled once by model_operator

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def d(self) -> int:
        return self.inner.d

    @cached_property
    def basis_id(self) -> str:
        """`serialize.basis_id` of the payload the basis is a function of: a
        Potapov basis hashes (d, m, n), U and the P_j, since Theta has many
        factorizations; a coefficient basis (d, lo, hi, n) and Theta."""
        inner = self.inner
        if inner.factors is None:
            return serialize.basis_id((inner.d, inner.theta.lo, inner.m, inner.n), inner.theta.coeffs)
        return serialize.basis_id((inner.d, inner.m, inner.n), *inner.factors[:2])

    def coords(self, w: np.ndarray) -> np.ndarray:
        """Q* w for a window array w of m blocks of d: m x d for one
        element, m x d x c for c.  For an element outside the model space
        these are the coordinates of its orthogonal projection."""
        m, d = self.inner.m, self.inner.d
        w = np.asarray(w)
        if w.shape[:2] != (m, d) or w.ndim > 3:
            raise ValueError(f"expected a window of {m} blocks of {d}, got shape {w.shape}")
        return self.q.conj().T @ w.reshape(m * d, *w.shape[2:])


def _disk_point(lam) -> complex:
    lam = complex(lam)
    if not abs(lam) < 1:  # NaN fails this test too
        raise ValueError("kernel points must lie in the open unit disk")
    return lam


def _directions(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.shape[:1] != (d,) or x.ndim > 2:
        raise ValueError(f"expected a vector in C^{d} or a block of {d} rows, got shape {x.shape}")
    return x


def off_space(inner: InnerFunction, w: np.ndarray) -> np.ndarray:
    """||L* f|| for each element f in the columns of the window array w
    (m*d rows): block k of L* f is the sum over i of Theta_i* f_{k+i}, the
    analytic part of Theta* f at frequency k, which vanishes exactly on the
    model space.  It reads Theta*'s blocks (`inner.adjoint_blocks`), not a
    projector, and takes Theta* w at frequencies 0..m-1 as one `convolve`,
    which forms L* itself, md x md, for w of d columns or more."""
    m, d = inner.m, inner.d
    return column_norms(convolve(inner.adjoint_blocks, w.reshape(m, d, -1), m).reshape(m * d, -1))


def require_member(residual: float, scale: float, what: str) -> None:
    """Refuse a computed element whose membership residual exceeds CHECK_TOL * scale."""
    require_small(residual, CHECK_TOL * scale, IdentityCheckError,
                  what + " left the model space, residual {residual:.3e}")


def kernel(inner: InnerFunction, lam: complex, x):
    """Window blocks of the reproducing kernel at lam applied to x, a vector
    in C^d (blocks m x d) or a d x c block (m x d x c), and the norm of the
    series that was cut off.

    The kernel is (I - Theta(z) Theta(lam)*) x = g_0 + ... + g_m z^m times
    the geometric series of 1/(1 - conj(lam) z), so its block k is
    c_k = conj(lam) c_{k-1} + g_k up to k = m and conj(lam)^(k-m) c_m past
    it.  That series must break off at degree m-1: the dropped part has
    norm ||c_m|| / sqrt(1 - |lam|^2), checked against CHECK_TOL (1 + ||x||).
    At lam = 0 the blocks are the g_k.  A window whose tail vanishes is the
    kernel, so membership is not measured again: ||L* k|| read at most 1e-5
    of the same bound on the fixtures, 150 seeded spaces and the
    conditioning families at |lam| <= 0.8 (`tests/element_oracles.py`).
    """
    lam, x = _disk_point(lam), _directions(x, inner.d)
    c = -(inner.blocks @ (evaluate(inner.theta, lam).conj().T @ x))  # g_0, ..., g_m
    c[0] += x
    for k in range(1, inner.m + 1):
        c[k] += lam.conjugate() * c[k - 1]
    tail = require_small(frobenius(c[-1]) / np.sqrt(1.0 - abs(lam) ** 2), CHECK_TOL * (1.0 + frobenius(x)),
                         IdentityCheckError, "kernel truncation tail {residual:.3e} did not vanish")
    return c[:-1], tail


def _synthetic_division(p: np.ndarray, lam: complex) -> np.ndarray:
    """Blocks q_0, ..., q_{m-1} of the quotient of p_0 + p_1 z + ... + p_m z^m
    by z - lam, by Horner's rule: q_{m-1} = p_m and q_{k-1} = p_k + lam q_k.
    The remainder p_0 + lam q_0 is p(lam)."""
    m = p.shape[0] - 1
    q = np.zeros((m,) + p.shape[1:], dtype=np.complex128)
    q[m - 1] = p[m]
    for k in range(m - 1, 0, -1):
        q[k - 1] = p[k] + lam * q[k]
    return q


def tilde_kernel(inner: InnerFunction, lam: complex, y):
    """Window blocks of the difference-quotient kernel
    (Theta(z) - Theta(lam)) y / (z - lam) for y a vector in C^d (m x d) or
    a d x c block (m x d x c), by synthetic division (exact in
    coefficients), and the norm of the division's remainder, checked
    against CHECK_TOL (1 + ||y||).  An exact quotient lies in the model
    space, so membership is not measured again (the margin of `kernel`)."""
    lam, y = _disk_point(lam), _directions(y, inner.d)
    p = inner.blocks @ y
    p[0] -= evaluate(inner.theta, lam) @ y
    q = _synthetic_division(p, lam)
    rem = require_small(frobenius(p[0] + lam * q[0]), CHECK_TOL * (1.0 + frobenius(y)), IdentityCheckError,
                        "synthetic division remainder {residual:.3e} did not vanish")
    return q, rem


def kernel_frame(basis: ModelSpaceBasis, lam: complex) -> np.ndarray:
    """n x d matrix whose column j has the coordinates of the kernel at lam
    applied to e_j.  That kernel is the projection of e_j / (1 - conj(lam) z),
    so the frame is Q* V with window block k of V equal to conj(lam)^k I;
    at lam = 0 it is Q[:d]*."""
    powers = np.conj(_disk_point(lam)) ** np.arange(basis.inner.m)
    return basis.coords(powers[:, None, None] * np.eye(basis.inner.d))


def tilde_kernel_frame(basis: ModelSpaceBasis, lam: complex) -> np.ndarray:
    """n x d matrix of the difference-quotient kernels at lam: Q* W with
    window block k of W equal to sum over j > k of lam^(j-k-1) Theta_j,
    the quotient of Theta(z) by z - lam; at lam = 0 it is
    Q* [Theta_1; ...; Theta_m]."""
    return basis.coords(_synthetic_division(basis.inner.blocks, _disk_point(lam)))
