"""Randomized self-check battery with a reproducible JSON report.

Every check draws from its own numbered stream of one seed, so reports
for the same configuration are byte-identical across runs.  Each check pins
the algebraic identity it exercises in the `anchor` field and reports
the worst normalized residual over all cases.  `run_suite` collects each
check's residuals in one list of floats and reduces it once: the count of
cases, the worst finite residual and the count of non-finite ones, any of
which fails the check.  Model-space elements are
handled as window arrays: f = Q c on the coefficient window (frequencies
0..m-1, m blocks of d), membership of f is ||L* f||, the analytic part of
Theta* f, and products with Theta are block convolutions over all
columns at once, kept in full wherever a norm of the whole product is
taken.  The drawn symbols are coefficient arrays too: the zero symbols
Theta Psi1 + (Theta Psi2)* here and the commutant's symbols in
`randgen.random_commuting_symbol` are each summed in one array and
wrapped in one `MatLaurent`, which checks finiteness and trims once.

The fixture spaces are constants of the package: each fixture's basis,
and the read-only operator data that `model_operator` keeps in its cache
(S, the defect data, J), are built once per process (`_fixture_basis`)
and shared by every `run_suite` in it.  Every check still runs on every
space of every run, and `basis_deterministic` still rebuilds each basis
from Theta.  A cold `mtto suite` runs once per process, so it builds them
as before.  The seeded spaces are drawn and built per run.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import fixtures, model_space
from .errors import NotMttoError, ParseError
from .fixtures import FIXTURE_FACTORS, FIXTURE_NAMES
from .laurent import (
    MatLaurent,
    VecLaurent,
    convolve,
    evaluate,
    inner_residual,
    multiply,
    reversed_adjoint,
)
from .model_operator import (
    Conjugation,
    action_check,
    c_symmetric,
    defect_spaces,
    gamma_symmetric_residual,
    kernel_recurrence_check,
    s_theta,
)
from .model_space import (
    ModelSpaceBasis,
    kernel,
    off_space,
    require_member,
    tilde_kernel,
)
from .mtto import (
    _delta,
    _divide_by_theta,
    _frame_split,
    _off_defect_norm,
    build,
    finite_rank,
    finite_rank_as_xhat,
    is_mtto,
    membership_witness,
    mtto_dimension,
    recover_symbol,
    semi_commutator_residual,
    zero_symbol_decompose,
)
from .numerics import REL, column_norms, frobenius, opnorm, rank
from .randgen import (
    MIN_DEFECT,
    random_blocks,
    random_commuting_symbol,
    random_element_coords,
    random_gamma_symmetric_triple,
    random_inner,
    random_non_member,
    random_symbol,
)
from .serialize import SCHEMA_VERSION, json_to_mat_laurent, laurent_to_json

_DEFAULT_SHAPES = ((2, 2), (3, 2))
MAX_SUITE_CASES = 100  # largest `cases` a config may ask for
MAX_SUITE_WORK = 2**25  # largest `predicted_work` of a run
SPACE_WORK_FLOOR = 32  # a space counts as a window of at least this many coordinates
D_WORK = 8  # weight of a space's n x d work, m*d * d^2, against its n x n work, max(m*d, SPACE_WORK_FLOOR)^3
TIGHT = 1e-9  # bound on a check's worst normalized residual
LOOSE = 1e-8  # the same where the residual passes through a membership test, a rebuild, a split or boundary values
FLAG_CUT = 0.5  # bound on a check whose cases are flags, 0 where it holds and 1 where it fails


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass(frozen=True)
class SuiteConfig:
    seed: int
    cases: int = 5
    fixtures: tuple = tuple(FIXTURE_NAMES)
    random_inners: tuple = _DEFAULT_SHAPES
    tol: float = REL  # relative decision threshold: membership verdicts and recoveries use tol * ||A||_F

    @classmethod
    def from_json(cls, obj) -> "SuiteConfig":
        """A config from a JSON object; a key that is absent keeps its default."""
        if not isinstance(obj, dict):
            raise ParseError("suite config must be a JSON object")
        if "seed" not in obj:
            raise ParseError("suite config needs a seed")
        extra = set(obj) - {f.name for f in fields(cls)}
        if extra:
            raise ParseError(f"unknown suite config keys: {sorted(extra)}")
        return cls(**obj)

    def __post_init__(self):
        """Refuse, before any draw, a field out of its domain or a run whose
        size is out of bounds.  Lists, as JSON gives them, are kept as tuples;
        the config is frozen, so no later assignment gets round the bounds."""
        if not _is_int(self.seed) or self.seed < 0:
            raise ParseError("seed must be a non-negative integer")
        if not _is_int(self.cases) or self.cases < 1:
            raise ParseError("cases must be a positive integer")
        if not isinstance(self.fixtures, (list, tuple)) or not self.fixtures:
            raise ParseError("fixtures must be a non-empty list of fixture names")
        for name in self.fixtures:
            if name not in FIXTURE_NAMES:
                raise ParseError(f"unknown fixture {name!r}")
        object.__setattr__(self, "fixtures", tuple(self.fixtures))
        if not isinstance(self.random_inners, (list, tuple)):
            raise ParseError("random_inners must be a list of [d, m] pairs")
        for s in self.random_inners:
            if not isinstance(s, (list, tuple)) or len(s) != 2 or not all(_is_int(v) and v >= 1 for v in s):
                raise ParseError("random_inners entries must be pairs of positive integers")
        object.__setattr__(self, "random_inners", tuple((d, m) for d, m in self.random_inners))
        if not isinstance(self.tol, (int, float)) or isinstance(self.tol, bool) or not 0 < float(self.tol) < 1:
            raise ParseError("tol must be a number in (0, 1)")
        object.__setattr__(self, "tol", float(self.tol))
        if self.cases > MAX_SUITE_CASES:
            raise ParseError(f"cases {self.cases} exceeds the limit of {MAX_SUITE_CASES}")
        work = predicted_work(self)
        if work > MAX_SUITE_WORK:
            raise ParseError(f"predicted suite work {work} exceeds the limit of {MAX_SUITE_WORK} "
                             f"(cases times the sum over the spaces of max(m*d, {SPACE_WORK_FLOOR})^3 + {D_WORK}*m*d^3)")

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "cases": self.cases,
            "fixtures": list(self.fixtures),
            "random_inners": [list(s) for s in self.random_inners],
            "tol": self.tol,
        }


def predicted_work(config: SuiteConfig) -> int:
    """cases * sum over the spaces of the run of
    max(m*d, SPACE_WORK_FLOOR)^3 + D_WORK * m*d * d^2.  A case's dense
    n x n products cost O(n^3) with n <= m*d, and a space of any size costs
    about as much as one with a window of SPACE_WORK_FLOOR.  Its d x d and
    n x d work (Haar draws, d x d norms, frames and symbols d columns wide)
    costs O(n d^2), which the window alone misses at large d: at one
    predicted 3.3e7 by the window, one case of [d, m] = [320, 1] took 9 to
    12 times as long as one of [1, 320] (one BLAS thread), and one of
    [150, 1] about as long as [1, 320].  D_WORK = 8 is the largest weight
    that still admits [150, 1]; [320, 1] then counts 9 times [1, 320], and
    [4, 64], which ran in half the time of [1, 320], half of it."""
    shapes = [(len(FIXTURE_FACTORS[name][0]), len(FIXTURE_FACTORS[name])) for name in config.fixtures]
    shapes += config.random_inners
    return config.cases * sum(max(m * d, SPACE_WORK_FLOOR) ** 3 + D_WORK * m * d**3 for d, m in shapes)


@functools.lru_cache(maxsize=len(FIXTURE_NAMES))
def _fixture_basis(name: str) -> ModelSpaceBasis:
    """The basis of a fixture, built once per process and shared by every
    run; its arrays, and those `model_operator` caches on it, are
    read-only.  It is built through `model_space` and `fixtures`, not this
    module's names, so a patch of `suite.ModelSpaceBasis` (as
    `tests/test_suite_route.py` makes) never reaches the cache."""
    return model_space.ModelSpaceBasis(fixtures.fixture(name))


def _spaces(config: SuiteConfig) -> list:
    """The (label, basis) pairs of one run: the fixtures, shared by every
    run, then the seeded spaces, drawn and built for this run."""
    spaces = [(name, _fixture_basis(name)) for name in config.fixtures]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(0xF1D0,)))
    for i, (d, m) in enumerate(config.random_inners):
        spaces.append((f"random-{d}x{m}-{i}", ModelSpaceBasis(random_inner(d, m, rng))))
    return spaces


# Each check below yields its residuals for one space (a number, an array
# of them, or a string: a note on why the space has no cases); `run_suite`
# runs it over every space of the run in order, on one stream.


def _check_coefficient_unitarity(basis, rng, config):
    theta = basis.inner.theta
    yield inner_residual(theta)
    for _ in range(config.cases):
        z = np.exp(2j * np.pi * rng.random())
        v = evaluate(theta, z)
        yield opnorm(v.conj().T @ v - np.eye(basis.inner.d)) / 10.0


def _check_basis_orthonormal(basis, rng, config):
    q = basis.q
    yield opnorm(q.conj().T @ q - np.eye(basis.n))
    yield off_space(basis.inner, q)


def _check_basis_deterministic(basis, rng, config):
    again = ModelSpaceBasis(basis.inner)
    yield 0.0 if np.array_equal(again.q, basis.q) else 1.0
    yield 0.0 if again.basis_id == basis.basis_id else 1.0


def _check_projection(basis, rng, config):
    d, m, q = basis.inner.d, basis.inner.m, basis.q
    for _ in range(config.cases):
        blocked = convolve(basis.inner.blocks, random_blocks(3, d, rng))  # Theta h, h of degree 2
        projected = q @ (q.conj().T @ blocked[:m].reshape(m * d, d))
        yield column_norms(projected) / (1.0 + column_norms(blocked.reshape(-1, d)))
        g = q @ random_element_coords(basis, rng)
        yield frobenius(q @ (q.conj().T @ g) - g) / (1.0 + frobenius(g))


def _check_reproducing(basis, rng, config):
    inner, q = basis.inner, basis.q
    for _ in range(config.cases):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        x = rng.standard_normal(inner.d) + 1j * rng.standard_normal(inner.d)
        k, tail = kernel(inner, lam, x)
        scale = 1.0 + frobenius(x)
        require_member(float(off_space(inner, k)[0]), scale, "kernel")
        yield tail / scale
        f = (q @ random_element_coords(basis, rng)).reshape(inner.m, inner.d)
        lhs = np.vdot(k, f)  # <f, k_lam x>
        rhs = np.vdot(x, lam ** np.arange(inner.m) @ f)  # <f(lam), x>
        yield abs(lhs - rhs) / (1.0 + abs(rhs))


def _check_difference_quotients(basis, rng, config):
    inner = basis.inner
    for _ in range(config.cases):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        y = rng.standard_normal(inner.d) + 1j * rng.standard_normal(inner.d)
        kt, rem = tilde_kernel(inner, lam, y)
        scale = 1.0 + frobenius(y)
        require_member(float(off_space(inner, kt)[0]), scale, "difference-quotient kernel")
        yield rem / scale
        shifted = np.zeros((inner.m + 1, inner.d), dtype=np.complex128)  # (z - lam) ktilde, blocks 0..m
        shifted[1:] = kt
        shifted[:-1] -= lam * kt
        target = inner.blocks @ y  # (Theta(z) - Theta(lam)) y
        target[0] -= evaluate(inner.theta, lam) @ y
        yield frobenius(shifted - target) / scale


def _check_tau(basis, rng, config):
    """tau f = z^-1 Theta~(z) f(1/z) and its adjoint g -> z^-1 Theta(z) g(1/z),
    each a block reversal followed by a block convolution, kept in full."""
    m, d = basis.inner.m, basis.inner.d
    blocks = basis.inner.blocks
    tilde_blocks = blocks.conj().transpose(0, 2, 1)
    for _ in range(config.cases):
        f = (basis.q @ random_element_coords(basis, rng)).reshape(m, d)
        g = convolve(tilde_blocks, f[::-1])  # block i at frequency i - m
        back = convolve(blocks, g[::-1])  # block i at frequency i - m
        back[m : 2 * m] -= f
        nf = frobenius(f)
        yield abs(frobenius(g) - nf) / (1.0 + nf)
        yield frobenius(back) / (1.0 + nf)


def _check_shift_actions(basis, rng, config):
    """action_check's residuals include I - S S* - K0 K0* (K0 = Q[:d]*);
    S^m by repeated squaring, about 2 log2 m products."""
    yield action_check(basis)["max_residual"]
    s, _ = s_theta(basis)
    yield opnorm(np.linalg.matrix_power(s, basis.inner.m))


def _check_semi_commutator(basis, rng, config):
    for _ in range(config.cases):
        phi = random_symbol(basis.inner.d, 0, 3, rng)
        a = build(basis, phi)
        yield semi_commutator_residual(basis, phi, a) / (1.0 + frobenius(a.mat))


def _check_members(basis, rng, config):
    for _ in range(config.cases):
        phi = random_symbol(basis.inner.d, -3, 3, rng)
        a = build(basis, phi)
        decision = is_mtto(basis, a, config.tol * frobenius(a.mat))
        scale = 1.0 + frobenius(a.mat)
        yield decision.residual / scale
        yield 0.0 if decision.verdict else 1.0
        yield membership_witness(basis, a).residual / scale
        yield membership_witness(basis, a, starred=True).residual / scale


def _check_non_members(basis, rng, config):
    if mtto_dimension(basis).dim == basis.n * basis.n:
        yield "every operator carries a symbol, nothing to reject"
        return
    for _ in range(config.cases):
        a = random_non_member(basis, rng)
        decision = is_mtto(basis, a, config.tol * frobenius(a))
        yield 0.0 if not decision.verdict and decision.residual >= MIN_DEFECT else 1.0


def _check_variants_agree(basis, rng, config):
    """The starred identity A - S* A S decided by the projector route off the
    second defect space against its split and against the plain verdict,
    both read off one starred Delta."""
    ds = defect_spaces(basis)
    for _ in range(config.cases):
        a = rng.standard_normal((basis.n, basis.n)) + 1j * rng.standard_normal((basis.n, basis.n))
        decision = is_mtto(basis, a, config.tol * frobenius(a))
        delta = _delta(basis, a, starred=True)
        starred = _off_defect_norm(delta, ds.dt_basis)
        spread = abs(_frame_split(delta, ds.dt_frame, ds.dt_pinv).residual - starred)  # split against compressed
        yield spread / (1.0 + decision.residual)
        agree = (decision.residual <= decision.tol) == (starred <= decision.tol)
        yield 0.0 if agree or decision.residual < 10 * decision.tol else 1.0


def _check_symbol_recovery(basis, rng, config):
    for _ in range(config.cases):
        phi = random_symbol(basis.inner.d, -2, 2, rng)
        a = build(basis, phi)
        try:
            yield recover_symbol(basis, a, config.tol * frobenius(a.mat)).residual / (1.0 + frobenius(a.mat))
        except NotMttoError:  # a tol below roundoff refuses members
            yield 1.0


def _check_zero_symbols(basis, rng, config):
    """Theta Psi1 + (Theta Psi2)*, Psi of degree 2, summed as one array on
    frequencies -top..top: Theta Psi1 covers theta.lo..top and
    (Theta Psi2)* its mirror, -top..-theta.lo."""
    theta, d = basis.inner.theta, basis.inner.d
    top = theta.hi + 2
    for _ in range(config.cases):
        psi1, psi2 = random_blocks(3, d, rng), random_blocks(3, d, rng)
        coeffs = np.zeros((2 * top + 1, d, d), dtype=np.complex128)
        coeffs[top + theta.lo :] += convolve(theta.coeffs, psi1)
        coeffs[: top - theta.lo + 1] += reversed_adjoint(convolve(theta.coeffs, psi2))
        phi = MatLaurent(-top, coeffs)
        result = zero_symbol_decompose(basis, phi)
        yield 0.0 if result.is_zero else 1.0
        if result.is_zero:
            yield result.residual / (1.0 + phi.norm())


def _check_finite_rank(basis, rng, config):
    d = basis.inner.d
    for lam in (0.0, 0.4 - 0.3j):
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        op = finite_rank(basis, lam, y)
        yield 0.0 if rank(op.mat) == rank(y) else 1.0
        yield is_mtto(basis, op).residual / (1.0 + frobenius(op.mat))
    y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    direct = finite_rank(basis, 0.0, y)
    via = finite_rank_as_xhat(basis, y)
    yield opnorm(direct.mat - via.mat) / (1.0 + frobenius(direct.mat))


def _check_kernel_recurrences(basis, rng, config):
    yield kernel_recurrence_check(basis, count=config.cases, seed=int(rng.integers(2**31)))["max_residual"]


def _check_commutant(basis, rng, config):
    s, _ = s_theta(basis)
    for _ in range(config.cases):
        a = build(basis, random_commuting_symbol(basis.inner, rng))
        yield frobenius(a.mat @ s - s @ a.mat) / (1.0 + frobenius(a.mat))


def _check_conjugation(_, rng, config):
    """Draws its own spaces: gamma-symmetric inner functions of random shape."""
    for _ in range(config.cases):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        gamma, inner, phi = random_gamma_symmetric_triple(d, m, rng)
        yield gamma_symmetric_residual(inner.theta, gamma) / 10.0
        basis = ModelSpaceBasis(inner)
        a = build(basis, phi)
        ok, res = c_symmetric(basis, gamma, a.mat)
        yield res / (1.0 + opnorm(a.mat))
        yield 0.0 if ok else 1.0


def _check_worked_example(_, rng, config):
    """Rank-one corner symbol on the diag(z, z^2) space, checked end to
    end: the image of (z, 0) stays in the model space but leaves
    Theta H^2, the operator is a rank-one member, and it breaks the
    conjugation symmetry that the compressed shift has."""
    basis = _fixture_basis("FIX3")
    phi = MatLaurent.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
    f = VecLaurent(1, [[1.0, 0.0]])
    image = multiply(phi, f)
    yield off_space(basis.inner, image.window(0, basis.inner.m - 1))  # the support {1} lies in the window
    # distance to Theta H^2, the norm of the remainder of the division by Theta, is the full norm of the image
    dist = frobenius(_divide_by_theta(basis.inner, image.lo, image.coeffs)[2])
    yield 0.0 if dist > 0.9 else 1.0
    a = build(basis, phi)
    yield 0.0 if rank(a.mat) == 1 else 1.0
    decision = is_mtto(basis, a, config.tol * frobenius(a.mat))
    yield decision.residual
    yield 0.0 if decision.verdict else 1.0
    gamma = Conjugation(np.eye(2))
    s, _ = s_theta(basis)
    ok_s, res_s = c_symmetric(basis, gamma, s)
    yield res_s
    yield 0.0 if ok_s else 1.0
    ok_a, res_a = c_symmetric(basis, gamma, a.mat)
    yield 0.0 if not ok_a and res_a > 0.1 else 1.0


def _check_serialization(basis, rng, config):
    theta = basis.inner.theta
    back = json_to_mat_laurent(laurent_to_json(theta))
    yield 0.0 if back.lo == theta.lo and np.array_equal(back.coeffs, theta.coeffs) else 1.0


# (stream, name, anchor, check, tol).  A check draws from stream k of the
# seed, the k-th child that SeedSequence.spawn would give, so removing a row
# moves no other check's draws.
_REGISTRY = [
    (0, "coefficient_unitarity", "sum_k A_k* A_{k+j} = delta_j I and unitary boundary values", _check_coefficient_unitarity, LOOSE),
    (2, "basis_orthonormal", "Q*Q = I and basis columns satisfy the space constraints", _check_basis_orthonormal, TIGHT),
    (3, "basis_deterministic", "rebuilding the basis reproduces it bit for bit", _check_basis_deterministic, FLAG_CUT),
    (4, "projection", "projection kills Theta H^2 and fixes the space", _check_projection, TIGHT),
    (5, "reproducing_kernels", "<f, k_lam x> = <f(lam), x> with vanishing high tail", _check_reproducing, TIGHT),
    (6, "difference_quotients", "(z - lam) ktilde_lam y = (Theta(z) - Theta(lam)) y", _check_difference_quotients, TIGHT),
    (7, "tau_unitary", "coefficient-reversal map preserves norms and inverts", _check_tau, TIGHT),
    (8, "shift_actions", "compressed shift acts by multiplication off the defects, S^m = 0", _check_shift_actions, TIGHT),
    (10, "semi_commutator", "A - S A S* sees only the symbol times the value at 0", _check_semi_commutator, TIGHT),
    (11, "members", "built operators pass the compression test with exact witnesses", _check_members, LOOSE),
    (12, "non_members", "certified complement operators are rejected", _check_non_members, FLAG_CUT),
    (13, "variants_agree", "plain and starred compressions decide alike", _check_variants_agree, FLAG_CUT),
    (14, "symbol_recovery", "recovered pair rebuilds the operator", _check_symbol_recovery, LOOSE),
    (15, "zero_symbols", "Theta Psi1 + (Theta Psi2)* induces the zero operator", _check_zero_symbols, LOOSE),
    (17, "finite_rank", "kernel sandwiches keep rank and membership", _check_finite_rank, LOOSE),
    (18, "kernel_recurrences", "shift moves reproducing kernels by the two-term rules", _check_kernel_recurrences, TIGHT),
    (19, "commutant", "symbols polynomial in z and Theta commute with the shift", _check_commutant, TIGHT),
    (20, "conjugation", "compatible symbols give conjugation-symmetric operators", _check_conjugation, LOOSE),
    (21, "worked_example", "corner symbol: image leaves Theta H^2, member of rank one, breaks conjugation symmetry", _check_worked_example, LOOSE),
    (22, "serialization", "Laurent JSON round-trips bit for bit", _check_serialization, FLAG_CUT),
]
_ONCE = (_check_conjugation, _check_worked_example)  # these run once per run, on spaces of their own


def run_suite(config: SuiteConfig) -> dict:
    spaces = _spaces(config)
    checks = []
    for stream, name, anchor, fn, tol in _REGISTRY:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(stream,)))
        values, notes = [], []
        for label, target in [(None, None)] if fn in _ONCE else spaces:
            for residual in fn(target, rng, config):
                if isinstance(residual, np.ndarray):  # one case per entry
                    values.extend(residual.ravel().tolist())
                elif isinstance(residual, str):
                    notes.append(f"{label}: {residual}")
                else:
                    values.append(residual)
        finite = [v for v in values if math.isfinite(v)]  # a NaN or an infinity fails the check
        worst = float(max([0.0, *finite]))  # floored at +0.0, which max keeps on a tie with -0.0
        non_finite = len(values) - len(finite)
        if non_finite:
            notes.append(f"non-finite residuals: {non_finite}")
        record = {
            "name": name,
            "anchor": anchor,
            "cases": len(values),
            "max_residual": worst,
            "tol": tol,
            "pass": worst <= tol and not non_finite,
        }
        if notes:
            record["notes"] = sorted(notes)
        checks.append(record)
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config.to_json(),
        "checks": checks,
        "pass": all(record["pass"] for record in checks),
    }
