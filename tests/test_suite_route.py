"""The suite's window checks against their per-vector oracles.

Each window check must report the residuals of its per-vector oracle in
tests/suite_oracles.py, in the same order, to 1e-13; it must draw from
its random stream exactly as the oracle does, so reports keep their case
counts and every later draw; and on a corrupted Q or Theta_1 both routes
must fail alike.  The commutant and zero-symbol checks, which sum their
symbols as coefficient arrays, must give the symbols and residuals of the
sums taken by the Laurent operators bit for bit, and no check may call
those operators.  `c_symmetric` decides in the Frobenius norm and must
give the verdicts of the spectral rule it replaced.
"""

import copy
import json

import numpy as np
import pytest

import suite_oracles
from basis_oracles import theta1_moved
from mttokit import laurent, model_space, suite
from mttokit.errors import IdentityCheckError, MttoError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit.model_operator import Conjugation, c_symmetric, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build
from mttokit.numerics import opnorm
from mttokit.randgen import random_gamma_symmetric_triple, random_inner

TOL = {name: tol for _, name, _, _, tol in suite._REGISTRY}
SEEDED = [((2, 2), 31), ((3, 2), 32), ((2, 3), 33)]


def _spaces():
    spaces = [(name, ModelSpaceBasis(fixture(name))) for name in FIXTURE_NAMES]
    for (d, m), seed in SEEDED:
        spaces.append((f"random-{d}x{m}", ModelSpaceBasis(random_inner(d, m, np.random.default_rng(seed)))))
    return spaces


SPACES = _spaces()


def _residuals(fn, basis, rng, cases=3):
    """Every residual the check yields on one space, arrays flattened, in
    order: the cases `run_suite` counts.  The conjugation check draws its
    own spaces and reads none it is given."""
    config = suite.SuiteConfig(seed=0, cases=cases)
    return [float(r) for residual in fn(basis, rng, config) for r in np.ravel(residual)]


@pytest.mark.parametrize("name", sorted(suite_oracles.CHECKS))
@pytest.mark.parametrize("label,basis", SPACES, ids=[label for label, _ in SPACES])
def test_window_check_matches_its_oracle_and_draws_alike(name, label, basis):
    window, oracle = suite_oracles.CHECKS[name]
    got_rng, want_rng = (np.random.default_rng(np.random.SeedSequence(entropy=5)) for _ in range(2))
    got = _residuals(window, basis, got_rng)
    want = _residuals(oracle, basis, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert len(got) == len(want)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert max(got) <= TOL[name]


def _symbols_handed_on(monkeypatch, module):
    """The support and coefficient bytes of every symbol `module` hands to
    `build` or `zero_symbol_decompose`, in order."""
    seen = []
    for attr in ("build", "zero_symbol_decompose"):
        def record(space, phi, *args, _fn=getattr(module, attr)):
            seen.append((phi.lo, phi.coeffs.shape, phi.coeffs.tobytes()))
            return _fn(space, phi, *args)

        monkeypatch.setattr(module, attr, record)
    return seen


@pytest.mark.parametrize("name", sorted(suite_oracles.SUMS))
@pytest.mark.parametrize("label,basis", SPACES, ids=[label for label, _ in SPACES])
def test_symbol_sums_match_the_laurent_operators_bit_for_bit(monkeypatch, name, label, basis):
    """The commutant and zero-symbol checks sum their symbols as coefficient
    arrays; the reports stay byte-identical only if every symbol and every
    residual equals the one the Laurent-operator sum gives.  Theta starts at
    frequency 1 on FIX1, FIX3 and FIX4 and at 2 on FIX2, so a sum that
    placed Theta^p at frequency 0 differs there (in the symbols alone
    where the commutator vanishes exactly)."""
    checked, oracle = suite_oracles.SUMS[name]
    got_symbols, want_symbols = _symbols_handed_on(monkeypatch, suite), _symbols_handed_on(monkeypatch, suite_oracles)
    got_rng, want_rng = (np.random.default_rng(np.random.SeedSequence(entropy=5)) for _ in range(2))
    got = _residuals(checked, basis, got_rng)
    want = _residuals(oracle, basis, want_rng)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert len(got_symbols) == 3 and got_symbols == want_symbols
    assert got == want
    assert max(got) <= TOL[name]


def test_the_suite_sums_no_symbol_through_the_laurent_operator_overloads(monkeypatch):
    """With `+`, `-` and scalar `*` of the Laurent classes made to raise,
    the benchmark's suite shape passes and gives the report it gives with them."""
    config = suite.SuiteConfig(seed=7, cases=1, random_inners=((2, 2),))
    want = json.dumps(suite.run_suite(config))

    def refuse(*args):
        raise AssertionError("a Laurent operator overload was called")

    for name in ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"):
        monkeypatch.setattr(laurent._Laurent, name, refuse)
    got = suite.run_suite(config)
    assert got["pass"] and json.dumps(got) == want


def _outcome(fn, basis):
    """The refusal a check raised, as (type, message up to its residual), or
    its residuals."""
    try:
        return _residuals(fn, basis, np.random.default_rng(7), cases=2)
    except MttoError as exc:  # a refused identity fails the check as well
        return type(exc), str(exc).split(" residual")[0]


def _with_q(basis, rng):
    out = copy.copy(basis)
    out.q = basis.q + 1e-6 * (rng.standard_normal(basis.q.shape) + 1j * rng.standard_normal(basis.q.shape))
    out.cache = {}
    return out


# difference quotients and tau never read Q: they check Theta alone
READS_Q = ["basis_orthonormal", "conjugation", "projection", "reproducing_kernels"]
PERTURBED = [("FIX5", ModelSpaceBasis(fixture("FIX5"))), SPACES[-1]]


@pytest.mark.parametrize("perturb,names", [(_with_q, READS_Q), (theta1_moved, sorted(suite_oracles.CHECKS))],
                         ids=["Q", "Theta1"])
@pytest.mark.parametrize("label,basis", PERTURBED, ids=[label for label, _ in PERTURBED])
def test_both_routes_fail_alike_on_a_corrupted_space(monkeypatch, perturb, names, label, basis):
    """Both routes refuse with the same error, or both report the same
    residuals, above the check's tolerance: a window form that cut a
    product to the window or skipped a refusal would differ here."""
    broken = perturb(basis, np.random.default_rng(11))
    # the conjugation check builds its own spaces: corrupt each one the same way for both routes
    monkeypatch.setattr(suite, "ModelSpaceBasis",
                        lambda inner: perturb(ModelSpaceBasis(inner), np.random.default_rng(12)))
    for name in names:
        window, oracle = (_outcome(fn, broken) for fn in suite_oracles.CHECKS[name])
        if isinstance(window, list):
            assert isinstance(oracle, list) and len(window) == len(oracle), name
            np.testing.assert_allclose(window, oracle, rtol=1e-9, atol=1e-13, err_msg=name)
            assert max(window) > TOL[name], name
        else:
            assert window == oracle, name


def test_a_corrupting_patch_of_the_suite_constructor_never_reaches_the_shared_spaces(monkeypatch):
    """The patch above corrupts every basis built through
    `suite.ModelSpaceBasis`.  A fixture space first built under it is built
    through `model_space`, so the process-wide cache keeps the true one."""
    suite._fixture_basis.cache_clear()
    corrupted = []

    def corrupting(inner):
        corrupted.append(inner)
        return _with_q(ModelSpaceBasis(inner), np.random.default_rng(12))

    monkeypatch.setattr(suite, "ModelSpaceBasis", corrupting)
    (_, cached), (_, seeded) = suite._spaces(suite.SuiteConfig(seed=0, cases=1, fixtures=("FIX3",),
                                                                       random_inners=((2, 2),)))
    monkeypatch.undo()
    assert corrupted == [seeded.inner]  # the patch was live: it reached the seeded space
    fresh = ModelSpaceBasis(fixture("FIX3"))
    assert cached is suite._fixture_basis("FIX3") and cached.basis_id == fresh.basis_id
    assert cached.q.tobytes() == fresh.q.tobytes()
    assert cached.inner.theta.coeffs.tobytes() == fresh.inner.theta.coeffs.tobytes()


@pytest.mark.parametrize("name,attr,what", [("reproducing_kernels", "kernel", "kernel"),
                                            ("difference_quotients", "tilde_kernel", "difference-quotient kernel")])
def test_both_routes_refuse_a_kernel_outside_the_space(monkeypatch, name, attr, what):
    """A kernel whose tail vanishes but which leaves the model space."""
    window_of = getattr(model_space, attr)

    def outside(inner, lam, v):
        window, witness = window_of(inner, lam, v)
        return window + 1e-3, witness

    monkeypatch.setattr(model_space, attr, outside)
    monkeypatch.setattr(suite, attr, outside)
    monkeypatch.setattr(suite_oracles, attr, outside)
    fix3 = ModelSpaceBasis(fixture("FIX3"))
    outcomes = {_outcome(fn, fix3) for fn in suite_oracles.CHECKS[name]}
    assert outcomes == {(IdentityCheckError, f"{what} left the model space,")}


def _triples():
    rng = np.random.default_rng(111)  # the triples of test_acceptance.test_11
    for i in range(10):
        gamma, inner, phi = random_gamma_symmetric_triple(2 + i % 2, 1 + i % 3, rng)
        basis = ModelSpaceBasis(inner)
        yield basis, gamma, build(basis, phi).mat


def test_c_symmetric_gives_the_spectral_verdicts():
    cases = [(basis, gamma, a) for basis, gamma, a in _triples()]
    fix3 = ModelSpaceBasis(fixture("FIX3"))
    corner = build(fix3, MatLaurent.constant(np.array([[0.0, 0.0], [1.0, 0.0]]))).mat
    gamma = Conjugation(np.eye(2))
    cases += [(fix3, gamma, corner), (fix3, gamma, s_theta(fix3)[0]), (fix3, gamma, np.zeros((3, 3)))]
    verdicts = []
    for basis, gamma, a in cases:
        ok, res = c_symmetric(basis, gamma, a)
        ok_oracle, res_oracle = suite_oracles.c_symmetric(basis, gamma, a)
        ok_spectral, res_spectral = suite_oracles.c_symmetric(basis, gamma, a, norm=opnorm)
        assert ok == ok_oracle == ok_spectral
        assert abs(res - res_oracle) <= 1e-13 * (1.0 + res)
        assert res_spectral <= res * (1 + 1e-12) + 1e-15  # the Frobenius norm bounds the spectral one
        verdicts.append(ok)
    assert verdicts == [True] * 10 + [False, True, True]
