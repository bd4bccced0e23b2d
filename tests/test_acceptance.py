"""Acceptance battery: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines; every criterion pins its own tolerances.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import (
    MatLaurent,
    VecLaurent,
    boundary_adjoint,
    evaluate,
    inner_residual,
    multiply,
)
from mttokit.model_operator import (
    Conjugation,
    action_check,
    c_symmetric,
    defect_spaces,
    s_theta,
)
from mttokit.model_space import InnerFunction, ModelSpaceBasis, kernel, make_inner_potapov
from mttokit.mtto import (
    build,
    finite_rank,
    finite_rank_as_xhat,
    is_mtto,
    membership_witness,
    mtto_dimension,
    zero_symbol_decompose,
)
from mttokit.numerics import nullspace, opnorm, rank
from mttokit.randgen import (
    random_commuting_symbol,
    random_element_coords,
    random_gamma_symmetric_triple,
    random_inner,
    random_non_member,
    random_symbol,
)
from mttokit.serialize import canonical_json
from mttokit.suite import SuiteConfig, run_suite

from basis_oracles import membership_residual
from dimension_oracles import SymbolSpaceBasis
from division_oracles import commutant_quotient
from element_oracles import element_coords
from product_oracles import tilde
from suite_oracles import element, from_coords, l2_inner, tau_apply


def _verdict(num: int, label: str, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})"
    print(line)
    assert ok, line


def _all_bases():
    return [ModelSpaceBasis(fixture(name)) for name in FIXTURE_NAMES]


def _range_projector(a):
    """Orthogonal projector onto the range of a: I minus the projector onto ker a*."""
    ker = nullspace(a.conj().T)
    return np.eye(a.shape[0]) - ker @ ker.conj().T


def test_01_coefficient_unitarity_and_circle_values():
    rng = np.random.default_rng(101)
    thetas = [fixture(name).theta for name in FIXTURE_NAMES]
    shapes = [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]
    for i in range(20):
        d, m = shapes[i % len(shapes)]
        thetas.append(random_inner(d, m, rng).theta)
    worst_coeff = 0.0
    worst_circle = 0.0
    for theta in thetas:
        worst_coeff = max(worst_coeff, inner_residual(theta))
        for t in range(64):
            z = np.exp(2j * np.pi * t / 64)
            v = evaluate(theta, z)
            worst_circle = max(worst_circle, opnorm(v.conj().T @ v - np.eye(theta.dim)))
    ok = worst_coeff <= 1e-10 and worst_circle <= 1e-8
    _verdict(1, "coefficient unitarity and circle-sample unitarity", ok,
             f"coeff residual {worst_coeff:.2e} <= 1e-10, circle {worst_circle:.2e} <= 1e-8, 25 functions")


def test_02_reproducing_kernels():
    rng = np.random.default_rng(102)
    pool = _all_bases()
    for d, m in ((2, 2), (3, 2), (2, 3)):
        pool.append(ModelSpaceBasis(random_inner(d, m, rng)))
    worst_pairing = 0.0
    worst_tail = 0.0
    for i in range(50):
        basis = pool[i % len(pool)]
        d = basis.inner.d
        lam = 0.85 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        x = x / np.linalg.norm(x)
        window, witness = kernel(basis.inner, lam, x)
        k = VecLaurent(0, window)
        worst_tail = max(worst_tail, witness)
        coords = random_element_coords(basis, rng)
        f = from_coords(basis, coords / np.linalg.norm(coords))
        worst_pairing = max(worst_pairing, abs(l2_inner(f, k) - np.vdot(x, evaluate(f, lam))))
    ok = worst_pairing <= 1e-9 and worst_tail <= 1e-9
    _verdict(2, "reproducing property over 50 cases", ok,
             f"pairing residual {worst_pairing:.2e} <= 1e-9, tail witness {worst_tail:.2e} <= 1e-9")


def test_03_coefficient_reversal_operator_matrix():
    worst_unitary = 0.0
    worst_intertwine = 0.0
    for name in ("FIX2", "FIX3", "FIX5"):
        basis = ModelSpaceBasis(fixture(name))
        tilde_basis = ModelSpaceBasis(InnerFunction(tilde(basis.inner.theta)))
        theta = basis.inner.theta
        cols = [element_coords(tilde_basis, tau_apply(theta, element(basis, j))) for j in range(basis.n)]
        t = np.column_stack(cols)
        worst_unitary = max(worst_unitary, opnorm(t.conj().T @ t - np.eye(basis.n)))
        s, _ = s_theta(basis)
        s_tilde, _ = s_theta(tilde_basis)
        worst_intertwine = max(worst_intertwine, opnorm(t @ s - s_tilde.conj().T @ t))
    ok = worst_unitary <= 1e-9 and worst_intertwine <= 1e-9
    _verdict(3, "reversal map is unitary and swaps the shift with its adjoint", ok,
             f"unitarity {worst_unitary:.2e}, intertwining {worst_intertwine:.2e}, both <= 1e-9")


def test_04_defect_ranges_and_action_formulas():
    worst_range = 0.0
    worst_action = 0.0
    for basis in _all_bases():
        s, s_adj = s_theta(basis)
        ds = defect_spaces(basis)
        eye = np.eye(basis.n)
        p_d, p_dt = ds.d_basis @ ds.d_basis.conj().T, ds.dt_basis @ ds.dt_basis.conj().T
        worst_range = max(worst_range, opnorm(_range_projector(eye - s @ s_adj) - p_d))
        worst_range = max(worst_range, opnorm(_range_projector(eye - s_adj @ s) - p_dt))
        report = action_check(basis)
        assert report["pass"], report
        worst_action = max(worst_action, report["max_residual"])
    ok = worst_range <= 1e-9 and worst_action <= 1e-9
    _verdict(4, "defect ranges and shift action formulas on all fixtures", ok,
             f"subspace residual {worst_range:.2e}, action residual {worst_action:.2e}, both <= 1e-9")


def test_05_membership_characterization():
    rng = np.random.default_rng(105)
    worst_member = 0.0
    worst_witness = 0.0
    agree = True
    # 50 members: ten random symbols on each fixture
    for name in FIXTURE_NAMES:
        basis = ModelSpaceBasis(fixture(name))
        for _ in range(10):
            phi = random_symbol(basis.inner.d, -3, 3, rng)
            a = build(basis, phi)
            decision = is_mtto(basis, a)
            scale = 1.0 + opnorm(a.mat)
            assert decision.verdict
            worst_member = max(worst_member, decision.residual / scale)
            worst_witness = max(
                worst_witness,
                membership_witness(basis, a).residual / scale,
                membership_witness(basis, a, starred=True).residual / scale,
            )
            agree = agree and _predicates_agree(basis, a, decision)
    # 20 non-members from the spaces with a strict complement
    z2eye = make_inner_potapov([np.eye(2), np.eye(2)])
    hosts = [ModelSpaceBasis(fixture("FIX2")), ModelSpaceBasis(fixture("FIX3")), ModelSpaceBasis(z2eye)]
    least_defect = np.inf
    for i in range(20):
        basis = hosts[i % len(hosts)]
        a = random_non_member(basis, rng)
        decision = is_mtto(basis, a)
        assert not decision.verdict
        least_defect = min(least_defect, decision.residual)
        agree = agree and _predicates_agree(basis, a, decision)
    ok = worst_witness <= 1e-8 and least_defect >= 1e-3 and agree and worst_member <= 1e-9
    _verdict(5, "membership decided with witnesses on 50 members and 20 rejections", ok,
             f"witness {worst_witness:.2e} <= 1e-8, rejection margin {least_defect:.2e} >= 1e-3, "
             f"plain and starred residuals agree on all 70: {agree}")


def _predicates_agree(basis, a, decision) -> bool:
    return (decision.residual <= decision.tol) == (membership_witness(basis, a, starred=True).residual <= decision.tol)


def test_06_zero_symbol_both_directions():
    rng = np.random.default_rng(106)
    hosts = [ModelSpaceBasis(fixture(n)) for n in ("FIX2", "FIX3", "FIX5")]
    worst_norm = 0.0
    worst_decomp = 0.0
    for i in range(20):
        basis = hosts[i % len(hosts)]
        theta = basis.inner.theta
        d = basis.inner.d
        phi = multiply(theta, random_symbol(d, 0, 2, rng)) + boundary_adjoint(
            multiply(theta, random_symbol(d, 0, 2, rng))
        )
        worst_norm = max(worst_norm, opnorm(build(basis, phi).mat))
        result = zero_symbol_decompose(basis, phi)
        assert result.is_zero
        worst_decomp = max(worst_decomp, result.residual)
    rejected = 0
    for i in range(20):
        basis = hosts[i % len(hosts)]
        theta = basis.inner.theta
        d = basis.inner.d
        sym = SymbolSpaceBasis(basis)
        el = sym.elements[int(rng.integers(len(sym.elements)))]
        phi = multiply(theta, random_symbol(d, 0, 2, rng)) + el
        result = zero_symbol_decompose(basis, phi)
        if not result.is_zero and result.operator_norm > 1e-3:
            rejected += 1
    ok = worst_norm <= 1e-9 and worst_decomp <= 1e-8 and rejected == 20
    _verdict(6, "symbols of the zero operator recognized and decomposed", ok,
             f"zero-op norm {worst_norm:.2e} <= 1e-9, decomposition {worst_decomp:.2e} <= 1e-8, "
             f"{rejected}/20 nonzero components rejected")


def test_07_dimension_counts():
    z2eye = make_inner_potapov([np.eye(2), np.eye(2)])
    cases = [
        (ModelSpaceBasis(fixture("FIX2")), 3),
        (ModelSpaceBasis(fixture("FIX3")), 8),
        (ModelSpaceBasis(fixture("FIX4")), 4),
        (ModelSpaceBasis(z2eye), 12),
    ]
    ok = True
    details = []
    for basis, want in cases:
        report = mtto_dimension(basis)
        d = basis.inner.d
        ok = ok and report.dim == want == 2 * basis.n * d - d * d
        ok = ok and report.gauge_dim == d * d
        details.append(f"n={basis.n},d={d}: {report.dim}")
    # the z^2 I_2 count matches the band count of block Toeplitz matrices
    basis = cases[-1][0]
    m, d = basis.inner.m, basis.inner.d
    ok = ok and cases[-1][1] == (2 * m - 1) * d * d
    # and built operators there really are block Toeplitz
    rng = np.random.default_rng(107)
    a = build(basis, random_symbol(d, -2, 2, rng)).mat
    blocks = a.reshape(m, d, m, d).transpose(0, 2, 1, 3)
    # with two block rows only the main diagonal repeats
    toeplitz_dev = float(np.abs(blocks[1, 1] - blocks[0, 0]).max())
    ok = ok and toeplitz_dev <= 1e-12
    _verdict(7, "operator-class dimension equals 2nd - d^2 with gauge d^2", ok,
             "; ".join(details) + f"; block Toeplitz deviation {toeplitz_dev:.2e}")


def test_08_finite_rank_sandwiches():
    rng = np.random.default_rng(108)
    ok = True
    worst_origin = 0.0
    for name in ("FIX3", "FIX5"):
        basis = ModelSpaceBasis(fixture(name))
        d = basis.inner.d
        for lam in (0.0, 0.5, 0.3 + 0.4j):
            for r in range(d + 1):
                if r == 0:
                    y = np.zeros((d, d), dtype=complex)
                else:
                    y = (rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))) @ (
                        rng.standard_normal((r, d)) + 1j * rng.standard_normal((r, d))
                    )
                op = finite_rank(basis, lam, y)
                ok = ok and rank(op.mat) == r and is_mtto(basis, op).verdict
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        direct = finite_rank(basis, 0.0, y)
        via = finite_rank_as_xhat(basis, y)
        worst_origin = max(worst_origin, opnorm(direct.mat - via.mat))
    ok = ok and worst_origin <= 1e-9
    _verdict(8, "kernel sandwiches keep rank, stay members, match defect form at 0", ok,
             f"ranks 0..d at three points on two spaces, origin residual {worst_origin:.2e} <= 1e-9")


def test_09_commutant_containment():
    rng = np.random.default_rng(109)
    hosts = [ModelSpaceBasis(fixture(n)) for n in ("FIX2", "FIX3", "FIX5")]
    worst_factor = 0.0
    worst_comm = 0.0
    for i in range(10):
        basis = hosts[i % len(hosts)]
        phi = random_commuting_symbol(basis.inner, rng)
        _, res = commutant_quotient(basis.inner, phi)
        worst_factor = max(worst_factor, res)
        a = build(basis, phi)
        s, _ = s_theta(basis)
        worst_comm = max(worst_comm, opnorm(a.mat @ s - s @ a.mat))
    ok = worst_factor <= 1e-10 and worst_comm <= 1e-9
    _verdict(9, "symbols fixing Theta H^2 commute with the shift", ok,
             f"factorization residual {worst_factor:.2e} <= 1e-10, commutator {worst_comm:.2e} <= 1e-9")


def test_10_worked_example():
    basis = ModelSpaceBasis(fixture("FIX3"))
    theta = basis.inner.theta
    phi = MatLaurent.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))
    image = multiply(phi, VecLaurent(1, [[1.0, 0.0]]))
    in_model_space = membership_residual(basis, image) <= 1e-12
    full = multiply(boundary_adjoint(theta), image)
    h_plus = VecLaurent(0, np.array([full.coeff(k) for k in range(max(full.hi, 0) + 1)]))
    outside_shifted_space = (image - multiply(theta, h_plus)).norm() > 0.9
    a = build(basis, phi)
    member = is_mtto(basis, a).verdict and rank(a.mat) == 1
    gamma = Conjugation(np.eye(2))
    s, _ = s_theta(basis)
    shift_symmetric, _ = c_symmetric(basis, gamma, s)
    op_symmetric, op_res = c_symmetric(basis, gamma, a.mat)
    report = run_suite(SuiteConfig.from_json({"seed": 1, "cases": 1, "fixtures": ["FIX3"], "random_inners": []}))
    named = {c["name"]: c for c in report["checks"]}["worked_example"]
    ok = (
        in_model_space
        and outside_shifted_space
        and member
        and shift_symmetric
        and not op_symmetric
        and op_res > 0.1
        and named["pass"]
    )
    _verdict(10, "corner-symbol example reproduced and pinned as a named suite case", ok,
             f"image in space {in_model_space}, outside Theta H^2 {outside_shifted_space}, "
             f"rank-1 member {member}, shift symmetric {shift_symmetric}, "
             f"operator asymmetric (residual {op_res:.2f}), suite case pass {named['pass']}")


def test_11_conjugation_symmetry_for_compatible_triples():
    rng = np.random.default_rng(111)
    worst = 0.0
    for i in range(10):
        d = 2 + i % 2
        m = 1 + i % 3
        gamma, inner, phi = random_gamma_symmetric_triple(d, m, rng)
        basis = ModelSpaceBasis(inner)
        a = build(basis, phi)
        symmetric, res = c_symmetric(basis, gamma, a.mat)
        assert symmetric, (i, res)
        worst = max(worst, res / (1.0 + opnorm(a.mat)))
    ok = worst <= 1e-9
    _verdict(11, "compatible symbol triples give conjugation-symmetric operators", ok,
             f"10 triples, worst normalized residual {worst:.2e} <= 1e-9")


def test_12_suite_determinism():
    cfg = {"seed": 2024, "cases": 2, "fixtures": ["FIX2", "FIX3", "FIX5"], "random_inners": [[2, 2]]}
    first = run_suite(SuiteConfig.from_json(cfg))
    second = run_suite(SuiteConfig.from_json(cfg))
    identical = canonical_json(first) == canonical_json(second)
    ok = identical and first["pass"]
    _verdict(12, "suite reports are byte-identical for one seed", ok,
             f"identical {identical}, suite pass {first['pass']}, {len(first['checks'])} checks")
