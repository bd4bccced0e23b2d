"""Model spaces of polynomial matrix inner functions.

For an inner Theta of degree m with values in the d x d matrices, the
model space is the orthogonal complement of Theta H^2 inside H^2 of
C^d-valued functions.  Because every zero of Theta sits at the origin,
z^m H^2 is contained in Theta H^2 and the whole space embeds in the
polynomials of degree < m; all computations happen in that m*d
dimensional coefficient window, where the orthogonal projector onto the
space is I - L L* with L the block Toeplitz matrix of Theta.  No SVD is
needed: n is trace P, read off Theta's blocks, and the basis is
Gram-Schmidt over the columns of P, which only the basis build forms; it
normalizes no residual below GS_CUT = 1 / MAX_WINDOW and still keeps n.
Membership of a window element f is ||L* f||, read by `off_space`, and of
a basis column q by ||q - P q||, which also names the repair qr(P Q).
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
    VecLaurent,
    evaluate,
    inner_residual,
    is_pure,
    reversed_adjoint,
    tilde,
)
from .numerics import (CHECK_TOL, DET_TOL, INNER_TOL, INPUT_TOL, TRACE_TOL, column_norms, fix_column_phases, frobenius,
                       require_small)

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
    (Theta(z) z^m Theta(1/conj z)* = z^m I): one Horner pass and one `slogdet`.
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
    product it also reads n off as the sum of the factor ranks, and the
    basis counts its Gram-Schmidt directions.  It refuses to continue unless
    all of them agree.  Diagonal block k of L L* is the sum over i <= k of
    Theta_i Theta_i*, so trace P = m*d - sum over k < m of (m - k)
    ||Theta_k||_F^2, with no P formed.  A window wider than MAX_WINDOW
    coordinates is refused before anything is allocated.  `blocks` holds
    Theta_0, ..., Theta_m as one read-only (m+1, d, d) array; `_potapov`
    is (U, [P_1, ...], sum of rank P_j); `adjoint_blocks`, `tail_inverse` are lazy.
    """

    def __init__(self, theta: MatLaurent, _potapov=None):
        if theta.lo < 0:
            raise NotInnerError("inner functions must be analytic")
        _require_window(theta.hi, theta.dim)
        require_small(inner_residual(theta), INNER_TOL, NotInnerError, "coefficient unitarity residual {residual:.3e}")
        if not is_pure(theta):
            raise NotPureError("value at the origin is not a strict contraction")
        self.theta = theta
        self.d = theta.dim
        self.m = theta.hi
        self.blocks = np.zeros((self.m + 1, self.d, self.d), dtype=np.complex128)  # Theta_0, ..., Theta_m
        self.blocks[theta.lo :] = theta.coeffs
        self.blocks.setflags(write=False)
        self._potapov = _potapov
        norms = np.sum(np.abs(self.blocks[: self.m]) ** 2, axis=(1, 2))  # ||Theta_k||_F^2, k < m
        trace = self.m * self.d - float(np.arange(self.m, 0, -1) @ norms)  # trace of P = I - L L*
        tol = self.m * self.d * TRACE_TOL
        require_small(abs(trace - round(trace)), tol, IdentityCheckError,
                      f"projector trace {trace!r} is not within {tol:.1e} of an integer")
        witnesses = {"projector trace": int(round(trace)), "det degree": det_degree(theta)}
        if _potapov is not None:
            witnesses["factor rank sum"] = _potapov[2]
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
        out.setflags(write=False)
        return out

    @cached_property
    def tail_inverse(self) -> np.ndarray:
        """R^-1 Q*, the left inverse of [Theta_1; ...; Theta_m] = QR, of rank d
        for pure Theta: its Gram matrix is I - Theta_0* Theta_0."""
        q, r = np.linalg.qr(self.blocks[1:].reshape(self.m * self.d, self.d))
        out = np.linalg.solve(r, q.conj().T)
        out.setflags(write=False)
        return out

    def evaluate(self, z: complex) -> np.ndarray:
        return evaluate(self.theta, z)

    def tilde(self) -> "InnerFunction":
        """Coefficient-adjointed partner; swaps the roles of the two
        defect spaces and of the shift with its adjoint."""
        return InnerFunction(tilde(self.theta))

    def to_json(self) -> dict:
        doc = {"schema_version": serialize.SCHEMA_VERSION}
        if self._potapov is not None:
            u, factors, _ = self._potapov
            doc["kind"] = "potapov"
            doc["left_unitary"] = serialize.matrix_to_json(u)
            doc["factors"] = [serialize.matrix_to_json(p) for p in factors]
        else:
            doc["kind"] = "coeffs"
            doc["laurent"] = serialize.laurent_to_json(self.theta)
        return doc


def potapov_product(factors, left_unitary=None):
    """Validate the factors of U (I - P_1 + z P_1) ... (I - P_r + z P_r) and
    multiply them out; purity is not checked.  Returns (Theta, (U, [P_1,
    ...], sum rank P_j)), the ranks read off from the rounded traces.  Factor
    j turns the blocks H_k of one (r+1, d, d) array into H_k (I - P_j) at k
    plus H_k P_j at k + 1, contracted and summed as in `multiply`.  r*d >
    MAX_WINDOW is refused before any product, even if U P_1 ... P_r = 0."""
    mats = [np.asarray(p, dtype=np.complex128) for p in factors]
    if not mats:
        raise ValueError("need at least one factor")
    d = mats[0].shape[0]
    u = np.eye(d, dtype=np.complex128) if left_unitary is None else np.asarray(left_unitary, dtype=np.complex128)
    if u.shape != (d, d):
        raise NotUnitaryError(f"left unitary must be {d} x {d}")
    if any(p.shape != (d, d) for p in mats):
        raise NotProjectionError("factor dimensions disagree")
    _require_window(len(mats), d)
    ps, eye = np.stack(mats), np.eye(d)
    with np.errstate(all="ignore"):  # an overflow leaves an inf or nan residual, refused below
        unitary = np.linalg.norm(u.conj().T @ u - eye)
        hermitian = np.linalg.norm(ps - ps.conj().transpose(0, 2, 1), axis=(1, 2))
        idempotent = np.linalg.norm(ps @ ps - ps, axis=(1, 2))
    require_small(unitary, INPUT_TOL, NotUnitaryError, "left factor is not unitary")
    require_small(np.maximum(hermitian, idempotent).max(), INPUT_TOL, NotProjectionError,
                  "factor is not an orthogonal projection")
    coeffs = np.zeros((len(mats) + 1, d, d), dtype=np.complex128)
    coeffs[0] = u
    for j, p in enumerate(ps, start=1):
        high = np.einsum("kab,bc->kac", coeffs[:j], p)
        coeffs[:j] = np.einsum("kab,bc->kac", coeffs[:j], eye - p)
        coeffs[1 : j + 1] += high
    return MatLaurent(0, coeffs), (u, mats, sum(int(round(np.trace(p).real)) for p in mats))


def make_inner_potapov(factors, left_unitary=None) -> InnerFunction:
    """The inner function `potapov_product` multiplies out; its model
    space has dimension sum rank P_j."""
    return InnerFunction(*potapov_product(factors, left_unitary))


def theta_from_json(obj):
    """(Theta, Potapov data or None) of an inner-function payload, its window
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


def inner_from_json(obj) -> InnerFunction:
    return InnerFunction(*theta_from_json(obj))


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
        big = np.flatnonzero(np.linalg.norm(rest, axis=0) > GS_CUT)  # the columns before big[0] are dropped too
        if not room or not big.size:
            return np.concatenate(kept, axis=1)
        w, r = np.linalg.qr(rest[:, big[0] :])
        axes = axes[:, stop:] @ w


def _panel_gram_schmidt(p: np.ndarray, n: int) -> np.ndarray:
    """The first n directions of in-order Gram-Schmidt over the columns of
    p, a column kept when its residual norm exceeds GS_CUT; fewer when the
    columns run out.  Each panel of PANEL columns is projected twice
    against the directions kept so far, by two products per pass, and
    factored by one Householder QR: its columns are the panel's
    Gram-Schmidt directions up to phase, and |R_jj| are the residual
    norms, up to the first skipped column.  A panel with skips is swept
    further on R alone (`_triangular_sweep`)."""
    q = np.zeros((p.shape[0], n), dtype=np.complex128)
    k = 0
    for start in range(0, p.shape[1], PANEL):
        if k == n:
            break
        panel = p[:, start : start + PANEL]
        for _ in range(2 if k else 0):  # the second pass restores orthogonality
            panel = panel - q[:, :k] @ (q[:, :k].conj().T @ panel)
        frame, r = np.linalg.qr(panel)  # panel = frame @ r
        small = np.flatnonzero(np.abs(np.diagonal(r)) <= GS_CUT)
        if small.size and small[0] < n - k:
            kept = frame @ _triangular_sweep(r, n - k)
        else:
            kept = frame[:, : n - k]
        q[:, k : k + kept.shape[1]] = kept
        k += kept.shape[1]
    return q[:, :k]


class ModelSpaceBasis:
    """Deterministic orthonormal basis of the model space.

    Gram-Schmidt of the columns P e_j of the window projector, in order:
    each column is projected twice against the directions kept so far and
    kept when what is left exceeds GS_CUT, and the sweep stops at n
    (`_panel_gram_schmidt` runs this rule a panel of columns at a time).
    GS_CUT is 1 / MAX_WINDOW: the final residuals of the at most m*d skipped
    columns square-sum to n minus the count kept, which is then below 1, so
    n are kept; and no direction is normalized from a residual below the
    cut, which bounds how much one step magnifies the rounding of P.
    It bounds one step, not a chain, so P Q is formed once and ||q - P q|| =
    ||L* q|| read per column: above OFF_ULPS * m*d * eps (no generic Theta
    is), Q becomes the Q factor of P Q, read again and refused if still so.
    Each column's first significant entry is then rotated to the positive
    real axis and signed zeros are made positive, so the same Theta always
    yields the same bytes.  The basis is named by `serialize.basis_id`, a
    hash of Theta, which makes operator matrices comparable across runs.
    """

    def __init__(self, inner: InnerFunction):
        self.inner = inner
        p = window_projector(inner.blocks)
        q = _panel_gram_schmidt(p, inner.n)
        if q.shape[1] != inner.n:
            raise IdentityCheckError(
                f"model dimension mismatch: Gram-Schmidt count {q.shape[1]}, projector trace {inner.n}"
            )
        gate, pq = OFF_ULPS * p.shape[0] * np.finfo(np.float64).eps, p @ q
        if np.linalg.norm(q - pq, axis=0).max() > gate:  # rounding compounded over near-cut columns
            q = np.linalg.qr(pq)[0]
            require_small(np.linalg.norm(q - p @ q, axis=0).max(), gate, IdentityCheckError,
                          "basis left the model space, max ||L* q|| {residual:.3e} after re-projection")
        self.q = fix_column_phases(q) + 0.0  # adding +0.0 turns every -0.0 into +0.0
        self.q.setflags(write=False)
        self._basis_id = None
        self.cache = {}  # read-only operator data of this space, filled once by model_operator

    @property
    def n(self) -> int:
        return self.inner.n

    @property
    def d(self) -> int:
        return self.inner.d

    @property
    def basis_id(self) -> str:
        if self._basis_id is None:
            self._basis_id = serialize.basis_id(self.inner.theta, self.n)
        return self._basis_id

    def coords(self, f: VecLaurent) -> np.ndarray:
        """Coefficients against the basis of the window of f (frequencies
        0..m-1, all that the model space can see); for f outside the model
        space these are the coordinates of its orthogonal projection."""
        if f.dim != self.inner.d:
            raise ValueError(f"dimension mismatch: {f.dim} vs {self.inner.d}")
        return self.q.conj().T @ f.window(0, self.inner.m - 1).reshape(-1)


def _disk_point(lam) -> complex:
    lam = complex(lam)
    if abs(lam) >= 1:
        raise ValueError("kernel points must lie in the open unit disk")
    return lam


def _vector(x, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.size != d:
        raise ValueError(f"expected a vector in C^{d}")
    return x


def off_space(inner: InnerFunction, w: np.ndarray) -> np.ndarray:
    """||L* f|| for each element f in the columns of the window array w
    (m*d rows): block k of L* f is the sum over i of Theta_i* f_{k+i}, the
    analytic part of Theta* f at frequency k, which vanishes exactly on the
    model space.  It reads Theta, not the projector the basis was built
    from, and forms no md x md matrix."""
    m = inner.m
    w = w.reshape(m, inner.d, -1)
    out = np.zeros(w.shape, dtype=np.complex128)
    for i in range(m):
        out[: m - i] += inner.blocks[i].conj().T @ w[i:]
    return column_norms(out.reshape(m * inner.d, -1))


def require_member(residual: float, scale: float, what: str) -> None:
    """Refuse a computed element whose membership residual exceeds CHECK_TOL * scale."""
    require_small(residual, CHECK_TOL * scale, IdentityCheckError,
                  what + " left the model space, residual {residual:.3e}")


def kernel_window(inner: InnerFunction, lam: complex, x):
    """Window blocks (m x d) of the reproducing kernel at lam applied to x
    in C^d, and the norm of the tail that was cut off.

    Computed by multiplying (I - Theta(z) Theta(lam)*) x with the
    geometric series of 1/(1 - conj(lam) z); the product must break off
    at degree m-1, and the discarded tail is checked against that.
    """
    lam, x = _disk_point(lam), _vector(x, inner.d)
    m = inner.m
    g = -(inner.blocks @ (inner.evaluate(lam).conj().T @ x))  # (I - Theta(z) Theta(lam)*) x
    g[0] += x
    powers = np.conj(lam) ** np.arange(2 * m + 1)
    c = np.zeros((2 * m + 1, inner.d), dtype=np.complex128)
    for i in range(m + 1):
        c[i:] += powers[: 2 * m + 1 - i, None] * g[i]
    tail = require_small(frobenius(c[m:]), CHECK_TOL * (1.0 + frobenius(x)), IdentityCheckError,
                         "kernel truncation tail {residual:.3e} did not vanish")
    return c[:m], tail


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


def tilde_kernel_window(inner: InnerFunction, lam: complex, y):
    """Window blocks (m x d) of the difference-quotient kernel
    (Theta(z) - Theta(lam)) y / (z - lam), computed by synthetic division
    (exact in coefficients), and the norm of the division's remainder."""
    lam, y = _disk_point(lam), _vector(y, inner.d)
    p = inner.blocks @ y
    p[0] -= inner.evaluate(lam) @ y
    q = _synthetic_division(p, lam)
    rem = require_small(frobenius(p[0] + lam * q[0]), CHECK_TOL * (1.0 + frobenius(y)), IdentityCheckError,
                        "synthetic division remainder {residual:.3e} did not vanish")
    return q, rem


def _checked_element(basis, window, witness, v, what, return_witness):
    out = VecLaurent(0, window)
    require_member(float(off_space(basis.inner, window)[0]), 1.0 + frobenius(v), what)
    return (out, witness) if return_witness else out


def kernel(basis: ModelSpaceBasis, lam: complex, x, return_witness: bool = False):
    """Reproducing kernel direction at lam applied to x in C^d, checked to
    lie in the model space; the witness is the tail of `kernel_window`."""
    return _checked_element(basis, *kernel_window(basis.inner, lam, x), x, "kernel", return_witness)


def tilde_kernel(basis: ModelSpaceBasis, lam: complex, y, return_witness: bool = False):
    """Difference-quotient kernel at lam applied to y, checked to lie in the
    model space; the witness is the remainder of `tilde_kernel_window`."""
    return _checked_element(
        basis, *tilde_kernel_window(basis.inner, lam, y), y, "difference-quotient kernel", return_witness
    )


def kernel_frame(basis: ModelSpaceBasis, lam: complex) -> np.ndarray:
    """n x d matrix whose column j has the coordinates of the kernel at lam
    applied to e_j.  That kernel is the projection of e_j / (1 - conj(lam) z),
    so the frame is Q* V with window block k of V equal to conj(lam)^k I;
    at lam = 0 it is Q[:d]*."""
    d, m = basis.inner.d, basis.inner.m
    powers = np.conj(_disk_point(lam)) ** np.arange(m)
    return basis.q.conj().T @ (powers[:, None, None] * np.eye(d)).reshape(m * d, d)


def tilde_kernel_frame(basis: ModelSpaceBasis, lam: complex) -> np.ndarray:
    """n x d matrix of the difference-quotient kernels at lam: Q* W with
    window block k of W equal to sum over j > k of lam^(j-k-1) Theta_j,
    the quotient of Theta(z) by z - lam; at lam = 0 it is
    Q* [Theta_1; ...; Theta_m]."""
    inner = basis.inner
    w = _synthetic_division(inner.blocks, _disk_point(lam))
    return basis.q.conj().T @ w.reshape(inner.m * inner.d, inner.d)
