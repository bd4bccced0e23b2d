"""Per-space facts are read off the defect data, not measured again by SVD.

`defect_spaces` takes one SVD per kernel frame, in `_frame_svd`, which
fixes rank K0 = rank K0~ = d; I - S S* = K0 K0* and I - S* S = K0~ K0~*
follow from the basis gate, so the rank and range of each defect operator
are taken neither by SVD nor from the operator itself.  The two dense
identities are kept as an oracle (`defect_oracles.defect_identities`) and
run here on the fixtures, the seeded spaces of `test_shift_route` and the
conditioning families of `test_conditioning_family`; a shift that breaks
the first is refused by `action_check`.  J and J~ are read off the left
inverses of the frames with no SVD; the four identities `j_operators` once
checked (`defect_oracles.j_identities`) and the pinv route it took
(`defect_oracles.pinv_j`) are kept as oracles and run here on the same
spaces, the conditioning families with both payloads; on the fixtures and
seeded spaces the identities also hold to an absolute 1e-9.
The division by Theta (`mtto._divide_by_theta`, run here as the commutant
quotient of `division_oracles`) takes no SVD, no `build` and no basis.
`kernel`, `tilde_kernel` and an analytic zero symbol the split certifies
read Theta alone, and build no basis.  `mtto_dimension` is a count on n
and d: on a fresh basis it takes no SVD and caches nothing.
`zero_symbol_decompose` divides by Theta on coefficient arrays with a left
inverse factored once per space by QR, and certifies a zero symbol by the
remainder's norm, with no SVD and no `build`; only a symbol it does not
certify takes one, the operator norm.  A wrapper around numpy's SVD counts
what each call still takes, and names its caller.  A suite request
scales its roundoff residuals by Frobenius norms; what SVDs it still takes
are pinned per caller and check, for a request in a new process and for
one that reads the fixture spaces an earlier request built.
"""

import collections
import os
import sys

import numpy as np
import pytest

import mttokit
from mttokit import mtto, suite
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, boundary_adjoint, multiply
from mttokit.model_operator import action_check, defect_spaces, j_operators, s_theta
from mttokit.model_space import InnerFunction, ModelSpaceBasis, potapov_product
from mttokit.mtto import build, mtto_dimension, zero_symbol_decompose
from mttokit.numerics import CHECK_TOL, opnorm
from mttokit.randgen import random_commuting_symbol, random_inner, random_symbol
from mttokit.suite import SuiteConfig, run_suite

import test_shift_route
from defect_oracles import defect_identities, frame_check_residuals, j_identities, pinv_j
from division_oracles import commutant_quotient
from element_oracles import kernel_element, tilde_kernel_element
from test_conditioning_family import _cases as conditioning_cases

np_linalg = getattr(np.linalg, "_linalg", np.linalg)  # where np.linalg.norm and pinv look up svd
INNERS = [fixture(name) for name in FIXTURE_NAMES] + [
    random_inner(d, m, np.random.default_rng(40 + d)) for d, m in ((2, 3), (3, 2), (4, 2))
]
IDS = list(FIXTURE_NAMES) + ["random-2x3", "random-3x2", "random-4x2"]


@pytest.fixture
def svd_callers(monkeypatch):
    """Name of the function behind every numpy SVD, in call order."""
    callers = []
    real = np_linalg.svd

    def counted(*args, **kwargs):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    return callers


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_new_basis_takes_one_svd_per_kernel_frame(inner, svd_callers):
    basis = ModelSpaceBasis(inner)
    svd_callers.clear()
    defect_spaces(basis)
    assert svd_callers == ["_frame_svd", "_frame_svd"]


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_mtto_dimension_takes_no_svd_and_leaves_the_cache_empty(inner, svd_callers):
    basis = ModelSpaceBasis(inner)
    svd_callers.clear()
    report = mtto_dimension(basis)
    assert svd_callers == [] and basis.cache == {}
    n, d = basis.n, basis.inner.d
    assert report.dim == 2 * n * d - d * d


def _identity_spaces():
    """The inners above, the seeded spaces of `test_shift_route` and the
    conditioning families (alternating, rotated and nested pairs), each
    family given by its Potapov factors and by its coefficients alone."""
    spaces = [pytest.param(inner, id=name) for inner, name in zip(INNERS, IDS)]
    spaces += [pytest.param(inner, id="shift-route-" + name)
               for name, inner in test_shift_route.SPACES.items() if name not in FIXTURE_NAMES]
    for case in conditioning_cases():
        theta, rank_sum = potapov_product(case.values[1])
        spaces += [pytest.param(InnerFunction(theta, rank_sum), id="family-" + case.id),
                   pytest.param(InnerFunction(theta), id="family-coeffs-" + case.id)]
    return spaces


IDENTITY_SPACES = _identity_spaces()


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_defect_identities_hold_to_roundoff(inner):
    for residual, bound in defect_identities(ModelSpaceBasis(inner)):
        assert residual <= bound  # the check defect_spaces made before it read the frames off Theta
        if inner in INNERS:
            assert residual <= 1e-13


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_untouched_bases_read_far_below_the_frame_check_bound(inner):
    assert max(frame_check_residuals(ModelSpaceBasis(inner))) <= 1e-3 * CHECK_TOL


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_j_identities_hold_to_check_tol_times_the_norm_of_j(inner):
    for label, residual, bound in j_identities(ModelSpaceBasis(inner)):
        assert residual <= bound, label  # what j_operators checked before it read J off the frames
        if inner in INNERS:  # ||J|| is of order 1 here, so the absolute bound holds as well
            assert residual <= 1e-9, label


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_j_agrees_with_the_pinv_route(inner):
    """Both routes lose about eps ||J||^2: the defect operators have norm 1
    and condition ||J|| on their ranges."""
    basis = ModelSpaceBasis(inner)
    for got, want in zip(j_operators(basis), pinv_j(basis)):
        assert opnorm(got - want) <= 1e-13 * max(1.0, opnorm(want)) ** 2


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_j_operators_takes_no_svd_on_a_basis_with_defect_data(inner, svd_callers):
    basis = ModelSpaceBasis(inner)
    defect_spaces(basis)
    svd_callers.clear()
    j_operators(basis)
    assert svd_callers == []


@pytest.fixture
def no_basis(monkeypatch):
    """Refuse every ModelSpaceBasis built from here on."""
    def refuse(*args):
        raise AssertionError("work on Theta alone built a basis")

    monkeypatch.setattr(ModelSpaceBasis, "__init__", refuse)


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_the_division_by_theta_takes_no_svd_and_no_build(inner, svd_callers, monkeypatch, no_basis):
    rng = np.random.default_rng(inner.n + 6)
    builds = []
    monkeypatch.setattr(mtto, "build", lambda *a: builds.append(a) or build(*a))
    for phi in (random_commuting_symbol(inner, rng), inner.theta, random_symbol(inner.d, 0, 2, rng)):
        svd_callers.clear()
        commutant_quotient(inner, phi)
        assert svd_callers == [] and builds == []


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_kernels_and_a_certified_analytic_zero_symbol_build_no_basis(inner, svd_callers, no_basis):
    rng = np.random.default_rng(inner.n + 7)
    for lam in (0.0, 0.5 - 0.2j):
        x = rng.standard_normal(inner.d) + 1j * rng.standard_normal(inner.d)
        for k in (kernel_element(inner, lam, x), tilde_kernel_element(inner, lam, x)):
            assert 0 <= k.lo <= k.hi < inner.m and k.dim == inner.d
    psi = random_symbol(inner.d, 0, 2, rng)
    result = zero_symbol_decompose(inner, multiply(inner.theta, psi))
    assert result.is_zero and not result.psi2.coeffs.any()
    assert (result.psi1 - psi).norm() <= 1e-10 * psi.norm() and result.residual <= 1e-8 * psi.norm()
    assert svd_callers == []


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_perturbed_shift_fails_the_defect_identity(inner):
    """A cached S + 1e-3 E passes `defect_spaces`, which reads no S, and
    is refused where the identity I - S S* = K0 K0* is still formed."""
    basis = ModelSpaceBasis(inner)
    s = s_theta(basis)[0]
    rng = np.random.default_rng(basis.n)
    fake = s + 1e-3 * (rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape))
    basis.cache["shift"] = (fake, fake.conj().T)
    report = action_check(basis)
    named = {c["name"]: c["residual"] for c in report["checks"]}
    assert not report["pass"]
    assert named["defect operator is evaluation at zero followed by the kernel frame"] > CHECK_TOL


@pytest.fixture
def made_laurents(monkeypatch):
    """Every MatLaurent built, in order."""
    made = []
    real = MatLaurent.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(MatLaurent, "__init__", counted)
    return made


@pytest.mark.parametrize("inner", INNERS, ids=IDS)
def test_zero_symbol_decompose_certifies_a_zero_with_no_svd_and_builds_only_its_factors(inner, svd_callers, made_laurents, monkeypatch):
    basis = ModelSpaceBasis(inner)
    rng = np.random.default_rng(basis.n + 5)
    theta, d = inner.theta, inner.d
    phi = multiply(theta, random_symbol(d, 0, 2, rng)) + boundary_adjoint(multiply(theta, random_symbol(d, 0, 2, rng)))
    factorizations = []
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: pytest.fail("lstsq called"))
    monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: factorizations.append(a) or np_linalg.qr(*a, **k))
    zero_symbol_decompose(basis, phi)
    assert len(factorizations) == 1  # [Theta_1; ...; Theta_m], factored on first use
    builds = []
    monkeypatch.setattr(mtto, "build", lambda *a: builds.append(a) or build(*a))
    svd_callers.clear()
    made_laurents.clear()
    result = zero_symbol_decompose(basis, phi)
    assert result.is_zero and len(factorizations) == 1
    assert svd_callers == [] and builds == []  # certified by the split
    assert made_laurents == [result.psi1, result.psi2]
    outside = phi + MatLaurent.identity(d)
    svd_callers.clear()
    made_laurents.clear()
    refused = zero_symbol_decompose(basis, outside)
    assert not refused.is_zero and svd_callers == ["opnorm"] and len(builds) == 1
    assert len(made_laurents) == 2  # the split's pair, made before the operator norm refuses


PACKAGE_DIR = os.path.dirname(mttokit.__file__) + os.sep
SUITE_SHAPE = SuiteConfig(seed=7, cases=1, random_inners=((2, 2),))  # the benchmark's suite request
# Per suite request of the benchmark's shape in a new process: the innermost
# mttokit function that took each SVD, and the check it ran under ("" for
# the shared spaces).
SUITE_SVDS_COLD = {
    ("_frame_svd", "_check_shift_actions"): 12,  # defect_spaces, two frames for each of the six spaces
    ("opnorm", ""): 1,  # random_inner's margin
    ("opnorm", "_check_basis_orthonormal"): 6,
    ("opnorm", "_check_coefficient_unitarity"): 6,
    ("opnorm", "_check_conjugation"): 1,
    ("opnorm", "_check_finite_rank"): 6,
    ("opnorm", "_check_non_members"): 3,
    ("opnorm", "_check_semi_commutator"): 6,
    ("opnorm", "_check_shift_actions"): 6,  # ||S^m||
    ("purity_margin", ""): 6,
    ("purity_margin", "_check_conjugation"): 1,
    ("rank", "_check_finite_rank"): 24,  # rank is the claim there
    ("rank", "_check_worked_example"): 1,
}
# A later request reads the five fixture spaces an earlier one built
# (`suite._fixture_basis`): only the seeded space checks its purity and
# takes its two frame SVDs.
SUITE_SVDS_WARM = {**SUITE_SVDS_COLD, ("_frame_svd", "_check_shift_actions"): 2, ("purity_margin", ""): 1}


def _suite_request_svds(monkeypatch):
    """The SVDs of one suite request of the benchmark's shape, by caller and check."""
    counts = collections.Counter()
    real = np_linalg.svd

    def counted(*args, **kwargs):
        frame, inner, check = sys._getframe(1), None, ""
        while frame is not None:
            if frame.f_code.co_filename.startswith(PACKAGE_DIR):
                inner = inner or frame.f_code.co_name
                if frame.f_code.co_name.startswith("_check_"):
                    check = frame.f_code.co_name
                    break
            frame = frame.f_back
        counts[(inner, check)] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(np_linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "svd", counted)
    assert run_suite(SUITE_SHAPE)["pass"]
    return dict(counts)


def test_suite_request_svds_per_caller(monkeypatch):
    suite._fixture_basis.cache_clear()  # as in a new process
    counts = _suite_request_svds(monkeypatch)
    assert counts == SUITE_SVDS_COLD and sum(counts.values()) == 79


def test_suite_request_on_built_fixture_spaces_svds_per_caller(monkeypatch):
    run_suite(SUITE_SHAPE)
    counts = _suite_request_svds(monkeypatch)
    assert counts == SUITE_SVDS_WARM and sum(counts.values()) == 64
