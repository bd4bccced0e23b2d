"""Per-vector oracles for the suite's window checks.

Before the suite checked its identities on window arrays, it handled every
model-space element as a VecLaurent: built from coordinates, projected
through `coords`, paired by the L^2 inner product and mapped by tau and
by the conjugation one element at a time.  Those helpers and the checks
written on them live here; the tests pin each window check of
`mttokit.suite` to its oracle, residual for residual.  Each oracle has the
signature of its check: it takes one space (the conjugation check: the
run's list of spaces), the check's stream and the suite config, and yields
its residuals in order.

The commutant and zero-symbol checks sum their symbols as coefficient
arrays.  Their oracles sum them as the Laurent operators do, with
`multiply`, `+` and scalar `*`, one `MatLaurent` per step, and the tests
pin the checks to them bit for bit.

`run_suite` collects each check's residuals in one list and reduces it
once; `reference_records` keeps the fold it replaced, which ravels every
residual with numpy and keeps the worst with Python's `max`, and the
tests pin every record of a finite run to it.
"""

import numpy as np

from mttokit import suite
from mttokit.errors import DimensionMismatchError, IdentityCheckError, NotGammaSymmetricError
from mttokit.laurent import MatLaurent, VecLaurent, boundary_adjoint, evaluate, multiply
from mttokit.model_operator import gamma_symmetric_residual, matrix_of, s_theta
from mttokit.model_space import InnerFunction, kernel, tilde_kernel
from mttokit.mtto import build, zero_symbol_decompose
from mttokit.numerics import CHECK_TOL, REL, frobenius, opnorm
from mttokit.randgen import (
    COMMUTING_TERMS,
    MAX_POWER,
    MAX_SHIFT,
    random_element_coords,
    random_gamma_symmetric_triple,
    random_symbol,
)

from basis_oracles import membership_residual
from element_oracles import element_coords
from product_oracles import tilde


def l2_inner(f: VecLaurent, g: VecLaurent) -> complex:
    """L^2 inner product on the circle, linear in the first argument."""
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")
    total = 0.0 + 0.0j
    for k in range(max(f.lo, g.lo), min(f.hi, g.hi) + 1):
        total += np.vdot(g.coeff(k), f.coeff(k))
    return complex(total)


def from_coords(basis, c) -> VecLaurent:
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    if c.size != basis.n:
        raise ValueError(f"expected {basis.n} coordinates, got {c.size}")
    return VecLaurent(0, (basis.q @ c).reshape(basis.inner.m, basis.inner.d))


def element(basis, j: int) -> VecLaurent:
    return VecLaurent(0, basis.q[:, j].reshape(basis.inner.m, basis.inner.d))


def project(basis, g: VecLaurent) -> VecLaurent:
    return from_coords(basis, element_coords(basis, g))


def apply(op, f: VecLaurent) -> VecLaurent:
    """An OperatorMatrix applied to a model-space element."""
    return from_coords(op.basis, op.mat @ element_coords(op.basis, f))


def _theta_of(obj):
    return obj.theta if isinstance(obj, InnerFunction) else obj


def _reverse(f: VecLaurent) -> VecLaurent:
    """Substitute z -> 1/z: the coefficient at k moves to -k."""
    return VecLaurent(-f.hi, f.coeffs[::-1])


def tau_apply(theta, f: VecLaurent) -> VecLaurent:
    """Unitary map from the model space of Theta onto that of its
    coefficient-adjointed partner: frequency-reverse f, multiply by the
    coefficient-adjointed Theta, shift down by one."""
    g = multiply(tilde(_theta_of(theta)), _reverse(f))
    return VecLaurent(g.lo - 1, g.coeffs)


def tau_adjoint_apply(theta, f: VecLaurent) -> VecLaurent:
    g = multiply(_theta_of(theta), _reverse(f))
    return VecLaurent(g.lo - 1, g.coeffs)


def conjugation_apply(basis, gamma, f: VecLaurent) -> VecLaurent:
    """The model-space conjugation: apply gamma coefficientwise with
    frequency reversal, shift down once, multiply by Theta."""
    inner = basis.inner
    if gamma.dim != inner.d:
        raise ValueError("conjugation dimension does not match")
    res = gamma_symmetric_residual(inner.theta, gamma)
    if res > 1e-9:
        raise NotGammaSymmetricError(f"theta is not gamma-symmetric, residual {res:.3e}")
    flipped = VecLaurent(-f.hi, np.conj(f.coeffs[::-1]) @ gamma.u.T)
    g = multiply(inner.theta, flipped)
    return VecLaurent(g.lo - 1, g.coeffs)


def conjugation_matrix(basis, gamma) -> np.ndarray:
    """The coordinate matrix of the conjugation, one basis element at a
    time, refused as `conjugation_matrix` refuses: off gamma-symmetry or
    off M = M^T (the membership of the images and M*M = I, which a
    gamma-symmetric Theta implies, are `element_oracles.conjugation_residuals`)."""
    n = basis.n
    mat = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        mat[:, j] = element_coords(basis, conjugation_apply(basis, gamma, element(basis, j)))
    resid = np.linalg.norm(mat - mat.T)
    if resid > 1e-9:
        raise IdentityCheckError(f"conjugation matrix is not symmetric, residual {resid:.3e}")
    return mat


def c_symmetric(basis, gamma, a, norm=frobenius):
    """A = C A* C through the per-element conjugation matrix; `norm=opnorm`
    is the spectral rule, residual <= REL * ||A|| in the operator norm."""
    mat = matrix_of(a, basis)
    m = conjugation_matrix(basis, gamma)
    residual = norm(mat - m @ mat.T @ m.conj().T)
    return residual <= REL * norm(mat), float(residual)


def basis_orthonormal(basis, rng, config):
    q = basis.q
    yield opnorm(q.conj().T @ q - np.eye(basis.n))
    for j in range(basis.n):
        yield membership_residual(basis, element(basis, j))


def projection(basis, rng, config):
    d = basis.inner.d
    for _ in range(config.cases):
        h = random_symbol(d, 0, 2, rng)
        blocked = multiply(basis.inner.theta, h)
        for i in range(d):
            col = VecLaurent(blocked.lo, blocked.coeffs[:, :, i])
            yield project(basis, col).norm() / (1.0 + col.norm())
        g = from_coords(basis, random_element_coords(basis, rng))
        yield (project(basis, g) - g).norm() / (1.0 + g.norm())


def _require_member(basis, f, v, what):
    """The membership check `kernel` and `tilde_kernel` once made, which the
    suite's window checks still make: ||L* f|| <= CHECK_TOL (1 + ||v||)."""
    resid = membership_residual(basis, f)
    if resid > CHECK_TOL * (1.0 + np.linalg.norm(v)):
        raise IdentityCheckError(f"{what} left the model space, residual {resid:.3e}")


def reproducing_kernels(basis, rng, config):
    d = basis.inner.d
    for _ in range(config.cases):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        window, witness = kernel(basis.inner, lam, x)
        k = VecLaurent(0, window)
        _require_member(basis, k, x, "kernel")
        yield witness / (1.0 + np.linalg.norm(x))
        f = from_coords(basis, random_element_coords(basis, rng))
        lhs = l2_inner(f, k)
        rhs = np.vdot(x, evaluate(f, lam))
        yield abs(lhs - rhs) / (1.0 + abs(rhs))


def difference_quotients(basis, rng, config):
    d = basis.inner.d
    theta = basis.inner.theta
    for _ in range(config.cases):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        y = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        window, witness = tilde_kernel(basis.inner, lam, y)
        kt = VecLaurent(0, window)
        _require_member(basis, kt, y, "difference-quotient kernel")
        yield witness / (1.0 + np.linalg.norm(y))
        shifted = VecLaurent(kt.lo + 1, kt.coeffs) - complex(lam) * kt
        target = multiply(theta, VecLaurent.constant(y)) - VecLaurent.constant(evaluate(theta, lam) @ y)
        yield (shifted - target).norm() / (1.0 + np.linalg.norm(y))


def tau_unitary(basis, rng, config):
    theta = basis.inner.theta
    for _ in range(config.cases):
        f = from_coords(basis, random_element_coords(basis, rng))
        g = tau_apply(theta, f)
        yield abs(g.norm() - f.norm()) / (1.0 + f.norm())
        back = tau_adjoint_apply(theta, g)
        yield (back - f).norm() / (1.0 + f.norm())


def conjugation(_, rng, config):
    for _ in range(config.cases):
        d = int(rng.integers(2, 4))
        m = int(rng.integers(1, 4))
        gamma, inner, phi = random_gamma_symmetric_triple(d, m, rng)
        yield gamma_symmetric_residual(inner.theta, gamma) / 10.0
        basis = suite.ModelSpaceBasis(inner)
        a = build(basis, phi)
        ok, res = c_symmetric(basis, gamma, a.mat)
        yield res / (1.0 + opnorm(a.mat))
        yield 0.0 if ok else 1.0


def commuting_symbol(inner, rng) -> MatLaurent:
    """`randgen.random_commuting_symbol` on the Laurent operators: the
    powers of Theta by `multiply`, and each term c z^a Theta^p added to the
    running sum by `+` and scalar `*`, from the same draws in the same order."""
    theta, d = inner.theta, inner.d
    powers = [MatLaurent.constant(np.eye(d))]
    for _ in range(MAX_POWER):
        powers.append(multiply(powers[-1], theta))
    phi = MatLaurent.zero(d)
    for _ in range(COMMUTING_TERMS):
        c = rng.standard_normal() + 1j * rng.standard_normal()
        a = int(rng.integers(0, MAX_SHIFT + 1))
        p = int(rng.integers(0, MAX_POWER + 1))
        phi = phi + c * MatLaurent(powers[p].lo + a, powers[p].coeffs)
    return phi


def commutant(basis, rng, config):
    s, _ = s_theta(basis)
    for _ in range(config.cases):
        a = build(basis, commuting_symbol(basis.inner, rng))
        yield frobenius(a.mat @ s - s @ a.mat) / (1.0 + frobenius(a.mat))


def zero_symbols(basis, rng, config):
    theta, d = basis.inner.theta, basis.inner.d
    for _ in range(config.cases):
        psi1, psi2 = random_symbol(d, 0, 2, rng), random_symbol(d, 0, 2, rng)
        phi = multiply(theta, psi1) + boundary_adjoint(multiply(theta, psi2))
        result = zero_symbol_decompose(basis, phi)
        yield 0.0 if result.is_zero else 1.0
        if result.is_zero:
            yield result.residual / (1.0 + phi.norm())


# suite check name -> (array sum, Laurent-operator oracle)
SUMS = {
    "commutant": (suite._check_commutant, commutant),
    "zero_symbols": (suite._check_zero_symbols, zero_symbols),
}

# suite check name -> (window check, per-vector oracle)
CHECKS = {
    "basis_orthonormal": (suite._check_basis_orthonormal, basis_orthonormal),
    "projection": (suite._check_projection, projection),
    "reproducing_kernels": (suite._check_reproducing, reproducing_kernels),
    "difference_quotients": (suite._check_difference_quotients, difference_quotients),
    "tau_unitary": (suite._check_tau, tau_unitary),
    "conjugation": (suite._check_conjugation, conjugation),
}


def reference_records(config):
    """The check records of `suite.run_suite(config)`, each residual folded
    in as it is yielded: raveled, counted by its size and maxed from 0.0.
    Python's `max` keeps the worst on a NaN, so the fold reads only runs
    whose residuals are all finite."""
    spaces = suite._spaces(config)
    records = []
    for stream, name, anchor, fn, tol in suite._REGISTRY:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(stream,)))
        cases, worst, notes = 0, 0.0, []
        for label, target in [(None, None)] if fn in suite._ONCE else spaces:
            for residual in fn(target, rng, config):
                if isinstance(residual, str):
                    notes.append(f"{label}: {residual}")
                    continue
                residual = np.ravel(residual)
                cases += residual.size
                worst = max(worst, float(residual.max(initial=0.0)))
        record = {"name": name, "anchor": anchor, "cases": cases, "max_residual": worst, "tol": tol, "pass": worst <= tol}
        if notes:
            record["notes"] = sorted(notes)
        records.append(record)
    return records
