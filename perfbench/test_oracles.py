"""Tests of the benchmark's own oracles and checkers; no timed runs.

    python3 -m pytest perfbench -q
"""

import copy
import json
import os
import sys
import types

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import mttokit  # noqa: E402
import mttokit.cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

FIXTURES = ("FIX1", "FIX2", "FIX3", "FIX4", "FIX5")


def _random_space(seed=3, d=3, ranks=(2, 1, 2, 2)):
    rng = np.random.default_rng(seed)
    u, projections = workloads.random_potapov(d, list(ranks), rng)
    basis = mttokit.ModelSpaceBasis(mttokit.make_inner_potapov(projections, u))
    return basis, oracles.potapov_theta(u, projections), rng


def _spaces():
    for name in FIXTURES:
        inner = mttokit.fixture(name)
        yield name, mttokit.ModelSpaceBasis(inner), (inner.theta.lo, inner.theta.coeffs)
    basis, theta, _ = _random_space()
    yield "random", basis, theta


@pytest.mark.parametrize("name,basis,theta", list(_spaces()), ids=[s[0] for s in _spaces()])
def test_window_oracle_matches_build(name, basis, theta):
    rng = np.random.default_rng(11)
    d, m = basis.inner.d, basis.inner.m
    for lo, hi in ((-3, 3), (0, 2), (-1, -1), (2, m + 2)):
        phi = (lo, workloads.random_coeffs(hi - lo + 1, d, rng))
        a = mttokit.build(basis, mttokit.MatLaurent(*phi)).mat
        assert oracles.check_build(a, basis.q, phi, d, m) is None
    assert oracles.check_basis(basis.q, theta, basis.n, d, m) is None


def test_potapov_theta_matches_program():
    rng = np.random.default_rng(5)
    u, projections = workloads.random_potapov(4, [3, 1, 2], rng)
    theta = oracles.potapov_theta(u, projections)
    program = mttokit.make_inner_potapov(projections, u).theta
    assert theta[0] == program.lo
    np.testing.assert_allclose(theta[1], program.coeffs, atol=1e-14)


@pytest.mark.parametrize("name,expected", [("FIX1", 2 * 1 - 1), ("FIX2", 2 * 2 - 1), ("FIX4", 2 * 2)])
def test_exact_class_dimensions(name, expected):
    basis = mttokit.ModelSpaceBasis(mttokit.fixture(name))
    n, d, m = basis.n, basis.inner.d, basis.inner.m
    assert oracles.class_dimension(n, d) == expected
    assert oracles.class_dimension_bruteforce(basis.q, d, m) == expected
    assert mttokit.mtto_dimension(basis).dim == expected


def test_bruteforce_class_dimension_is_2nd_minus_d2():
    basis, _, _ = _random_space()
    n, d, m = basis.n, basis.inner.d, basis.inner.m
    assert oracles.class_dimension_bruteforce(basis.q, d, m) == oracles.class_dimension(n, d) == 2 * n * d - d * d


def test_check_build_rejects_relative_perturbation():
    basis, _, rng = _random_space()
    d, m = basis.inner.d, basis.inner.m
    phi = (-2, workloads.random_coeffs(5, d, rng))
    a = mttokit.build(basis, mttokit.MatLaurent(*phi)).mat
    assert oracles.check_build(a, basis.q, phi, d, m) is None
    assert oracles.check_build(a * (1 + 1e-6), basis.q, phi, d, m) is not None
    assert oracles.check_build(a[:-1], basis.q, phi, d, m) is not None


def test_check_verdict_rejects_flip():
    decision = types.SimpleNamespace(verdict=False)
    assert oracles.check_verdict(decision, False, "x") is None
    assert oracles.check_verdict(decision, True, "x") is not None


def test_check_recovered_rejects_perturbed_pair():
    basis, _, rng = _random_space()
    d, m = basis.inner.d, basis.inner.m
    phi = (-2, workloads.random_coeffs(5, d, rng))
    a = mttokit.build(basis, mttokit.MatLaurent(*phi))
    rec = mttokit.recover_symbol(basis, a)
    expected = oracles.compressed(basis.q, phi, d, m)
    assert oracles.check_recovered(rec.psi1, rec.psi2, expected, basis.q, d, m) is None
    lo, c = oracles.laurent(rec.psi1)
    bumped = (lo, c * (1 + 1e-6))
    assert oracles.check_recovered(bumped, rec.psi2, expected, basis.q, d, m) is not None
    assert oracles.check_recovered(rec.psi1, (-1, oracles.laurent(rec.psi2)[1]), expected, basis.q, d, m) is not None


def test_check_zero_decomposition_rejects_perturbed_factors():
    basis, theta, rng = _random_space()
    d = basis.inner.d
    psi1 = (0, workloads.random_coeffs(3, d, rng))
    psi2 = (0, workloads.random_coeffs(3, d, rng))
    phi0 = oracles.add(oracles.convolve(theta, psi1), oracles.star(oracles.convolve(theta, psi2)))
    result = mttokit.zero_symbol_decompose(basis, mttokit.MatLaurent(*phi0))
    assert oracles.check_zero_decomposition(result, phi0, theta) is None
    bad = copy.copy(result)
    bad.psi1 = (result.psi1.lo, result.psi1.coeffs * (1 + 1e-6))
    assert oracles.check_zero_decomposition(bad, phi0, theta) is not None
    refused = copy.copy(result)
    refused.is_zero = False
    assert oracles.check_zero_decomposition(refused, phi0, theta) is not None


def test_check_basis_rejects_bad_columns():
    basis, theta, _ = _random_space()
    n, d, m = basis.n, basis.inner.d, basis.inner.m
    q = basis.q
    assert oracles.check_basis(q, theta, n, d, m) is None
    assert oracles.check_basis(q * (1 + 1e-6), theta, n, d, m) is not None
    # orthonormal columns, but one of them outside the model space
    outside = np.linalg.svd(q.conj().T)[2][n:].conj().T[:, :1]
    swapped = np.column_stack([q[:, :-1], outside])
    assert oracles.check_basis(swapped, theta, n, d, m) is not None


def test_check_dimension_rejects_wrong_count():
    assert oracles.check_dimension(2 * 5 * 2 - 4, 5, 2) is None
    assert oracles.check_dimension(2 * 5 * 2 - 3, 5, 2) is not None


def test_membership_request_checks():
    wl = workloads.Membership(mttokit, seed=1)
    wl.shapes = ((1, [1] * 3), (2, [1, 2]))
    wl.setup()
    req = wl.make_request(1)
    a, on_a, on_g = wl.run(req)
    assert wl.check(req, (a, on_a, on_g)) is None
    assert wl.check(req, (a * (1 + 1e-6), on_a, on_g)) is not None
    flipped = copy.copy(on_g)
    flipped.verdict = True
    assert wl.check(req, (a, on_a, flipped)) is not None


def test_recovery_request_checks():
    wl = workloads.Recovery(mttokit, seed=1)
    wl.shapes = ((2, [1, 2, 1]),)
    wl.setup()
    req = wl.make_request(0)
    a, rec, zero = wl.run(req)
    assert wl.check(req, (a, rec, zero)) is None
    bad = copy.copy(rec)
    bad.psi2 = (rec.psi2.lo, rec.psi2.coeffs * (1 + 1e-6))
    assert wl.check(req, (a, bad, zero)) is not None


def test_spaces_request_checks(tmp_path):
    wl = workloads.Spaces(mttokit, seed=1, workdir=str(tmp_path))
    wl.shapes = ((3, [2, 2]),)
    req = wl.make_request(0)
    (st_dim, dim_text), basis_out = wl.run(req)
    assert wl.check(req, ((st_dim, dim_text), basis_out)) is None
    doc = json.loads(dim_text)
    doc["dim"] += 1
    assert wl.check(req, ((st_dim, json.dumps(doc)), basis_out)) is not None
    assert wl.check(req, ((1, dim_text), basis_out)) is not None


def test_suite_request_checks():
    wl = workloads.Suite(mttokit, seed=1)
    wl.setup()
    first, again = wl.make_requests(1)
    report = wl.run(first)
    assert wl.check(first, report) is None
    assert wl.check(again, copy.deepcopy(report)) is None
    changed = copy.deepcopy(report)
    changed["checks"][0]["cases"] += 1
    assert wl.check(again, changed) is not None
    failing = copy.deepcopy(report)
    failing["pass"] = False
    assert wl.check(first, failing) is not None
