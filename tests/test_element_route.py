"""The kernels and the conjugation re-prove nothing their kept checks imply.

`kernel` and `tilde_kernel` return a window, whose truncation tail and
division remainder they check; the membership test they once made on it
is kept as an oracle (`element_oracles.kernel_memberships`) and read here on the
fixtures, the seeded spaces of `test_shift_route`, the conditioning
families with both payloads and gamma-symmetric spaces turned off
gamma-symmetry: it stays below KERNEL_SHARE of its bound (at most 9.5e-6
of it on those spaces, |lam| <= 0.8).  `conjugation_matrix` keeps the
gamma-symmetry precondition and M = M^T; the image membership and M*M = I
it once checked are kept as an oracle (`element_oracles.conjugation_residuals`):
on gamma-symmetric spaces both stay below ROUNDOFF (at most 2e-14 on 300
of them), and on spaces turned off gamma-symmetry by a unitary near I the
membership residual stays below the gamma-symmetry residual the
precondition bounds (at most 0.81 times it), so a Theta the precondition
passes has images within its bound, CHECK_TOL.  M - M^T reads up to 2.6
times the gamma-symmetry residual, so that check is not implied, and it
stays.  The kept checks still refuse.

`kernel` sums its series by the recurrence c_k = conj(lam) c_{k-1} + g_k
over the m + 1 blocks of g = (I - Theta(z) Theta(lam)*) x.  It stays
within ROUNDOFF_KERNEL (1 + ||x||) of the 2m + 1-block loop it replaced
(`element_oracles.kernel_series`) at |lam| <= 0.95, a d x c block equals
its columns to the same share of each column's norm, the window at 0
is E0 - [Theta_0; ...; Theta_{m-1}] Theta_0* bit for bit, and the tail
is the norm of the whole dropped series c_m conj(lam)^j z^(m+j), never
below the reading of its blocks m..2m the loop took.  A kernel point that
is not inside the disk, NaN included, is refused as bad input.
"""

import numpy as np
import pytest

from mttokit import model_operator, model_space
from mttokit.errors import IdentityCheckError, NotGammaSymmetricError
from mttokit.fixtures import fixture
from mttokit.laurent import evaluate
from mttokit.model_operator import Conjugation, conjugation_matrix
from mttokit.model_space import ModelSpaceBasis, kernel, kernel_frame, tilde_kernel, tilde_kernel_frame
from mttokit.mtto import finite_rank
from mttokit.numerics import CHECK_TOL, frobenius
from mttokit.randgen import random_gamma_symmetric_triple

from element_oracles import conjugation_residuals, kernel_memberships, kernel_series, turned
from test_svd_guard import IDENTITY_SPACES

KERNEL_SHARE = 1e-4  # a kernel window's ||L* k|| per unit of the dropped bound CHECK_TOL (1 + ||x||)
ROUNDOFF = 1e-12  # membership and unitarity residuals of the conjugation on a gamma-symmetric space
ROUNDOFF_KERNEL = 1e-15  # the recurrence against the loop, and a block against its columns, per unit of 1 + ||x||


def _gamma_spaces(count, seed):
    """(gamma, inner) of `count` gamma-symmetric spaces, d in 2..4 and m in 1..4."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        gamma, inner, _ = random_gamma_symmetric_triple(2 + i % 3, 1 + (i // 3) % 4, rng)
        yield gamma, inner


def _turned_spaces(count, seed):
    """(gamma, Theta W) with W a unitary 1e-13 to 1e-7 away from I."""
    rng = np.random.default_rng(seed)
    for gamma, inner in _gamma_spaces(count, seed + 1):
        yield gamma, turned(inner, 10 ** rng.uniform(-13, -7), rng)


TURNED = [pytest.param(inner, id=f"turned-{i}") for i, (_, inner) in enumerate(_turned_spaces(12, 60))]


@pytest.mark.parametrize("inner", IDENTITY_SPACES + TURNED)
def test_kernel_windows_lie_in_the_space_far_below_the_dropped_bound(inner):
    rng = np.random.default_rng(inner.n)
    for _ in range(8):
        lam = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        x = rng.standard_normal(inner.d) + 1j * rng.standard_normal(inner.d)
        for residual, bound in kernel_memberships(inner, lam, x):
            assert residual <= KERNEL_SHARE * bound


def test_conjugation_images_and_unitarity_hold_to_roundoff_on_gamma_symmetric_spaces():
    cases = [(Conjugation(np.eye(fixture(name).d)), fixture(name)) for name in ("FIX1", "FIX2", "FIX3", "FIX4")]
    cases += list(_gamma_spaces(300, 61))
    for gamma, inner in cases:
        basis = ModelSpaceBasis(inner)
        res = conjugation_residuals(basis, gamma)
        assert res["gamma"] <= CHECK_TOL and res["symmetry"] <= CHECK_TOL  # what conjugation_matrix checks
        assert res["membership"] <= ROUNDOFF and res["unitarity"] <= ROUNDOFF
        conjugation_matrix(basis, gamma)


def test_off_gamma_symmetry_the_precondition_bounds_the_image_membership():
    passed, symmetry_share = 0, 0.0
    for gamma, inner in _turned_spaces(500, 62):
        res = conjugation_residuals(ModelSpaceBasis(inner), gamma)
        assert res["membership"] <= res["gamma"]  # so gamma <= CHECK_TOL keeps the images within CHECK_TOL
        assert res["unitarity"] <= ROUNDOFF
        passed += res["gamma"] <= CHECK_TOL
        symmetry_share = max(symmetry_share, res["symmetry"] / res["gamma"])
    assert passed >= 100  # the turns straddle the precondition's bound
    assert symmetry_share > 1.0  # M = M^T is not implied by the precondition, so it stays


def test_the_gamma_symmetry_precondition_refuses_a_turned_theta():
    gamma, inner = next(_gamma_spaces(1, 63))
    basis = ModelSpaceBasis(turned(inner, 1e-6, np.random.default_rng(64)))
    with pytest.raises(NotGammaSymmetricError, match="not gamma-symmetric"):
        conjugation_matrix(basis, gamma)


def test_the_symmetry_check_refuses_when_the_precondition_is_passed_by(monkeypatch):
    gamma, inner = next(_gamma_spaces(1, 63))
    basis = ModelSpaceBasis(turned(inner, 1e-4, np.random.default_rng(64)))
    monkeypatch.setattr(model_operator, "gamma_symmetric_residual", lambda *args: 0.0)
    with pytest.raises(IdentityCheckError, match="conjugation matrix is not symmetric, residual"):
        conjugation_matrix(basis, gamma)


@pytest.mark.parametrize("fn,what", [(kernel, "kernel truncation tail"),
                                     (tilde_kernel, "synthetic division remainder")])
def test_the_tail_and_remainder_checks_refuse_a_wrong_value_of_theta(monkeypatch, fn, what):
    """With Theta(lam) read 1e-6 off, the kernel's product no longer breaks
    off at degree m - 1 and the division leaves a remainder."""
    inner = fixture("FIX5")
    fn(inner, 0.3 - 0.2j, [1.0, 2.0])
    monkeypatch.setattr(model_space, "evaluate", lambda f, z: evaluate(f, z) * (1 + 1e-6))
    with pytest.raises(IdentityCheckError, match=what):
        fn(inner, 0.3 - 0.2j, [1.0, 2.0])


def _points(inner, count):
    """Seeded kernel points with |lam| <= 0.95 and d x 3 blocks of directions."""
    rng = np.random.default_rng(inner.n + 17)
    for _ in range(count):
        lam = 0.95 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        yield lam, rng.standard_normal((inner.d, 3)) + 1j * rng.standard_normal((inner.d, 3))


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_the_kernel_recurrence_stays_within_roundoff_of_the_series_loop(inner):
    for lam, x in _points(inner, 5):
        for v in (x, x[:, 0]):
            window, _ = kernel(inner, lam, v)
            assert window.shape == (inner.m,) + v.shape
            assert frobenius(window - kernel_series(inner, lam, v)[: inner.m]) <= ROUNDOFF_KERNEL * (1 + frobenius(v))


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_a_block_of_directions_gives_the_windows_of_its_columns(inner):
    for lam, x in _points(inner, 5):
        for fn in (kernel, tilde_kernel):
            block, _ = fn(inner, lam, x)
            for j in range(x.shape[1]):
                column, _ = fn(inner, lam, x[:, j])
                assert np.abs(block[..., j] - column).max() <= ROUNDOFF_KERNEL * (1 + frobenius(x[:, j]))


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_the_kernel_at_zero_is_the_closed_form_bit_for_bit(inner):
    md = inner.m * inner.d
    closed = np.eye(md, inner.d) - inner.blocks[:-1].reshape(md, inner.d) @ inner.blocks[0].conj().T
    window, tail = kernel(inner, 0.0, np.eye(inner.d))
    assert np.array_equal(window.reshape(md, inner.d), closed)
    assert tail == frobenius(inner.blocks[-1] @ inner.blocks[0].conj().T)  # the block g_m, dropped whole


@pytest.mark.parametrize("inner", IDENTITY_SPACES)
def test_the_tail_is_the_norm_of_the_whole_dropped_series(inner):
    """Block m + j of the series is conj(lam)^j c_m, with c_m the next step
    of the recurrence after the window; the loop read blocks m..2m."""
    for lam, x in _points(inner, 5):
        window, tail = kernel(inner, lam, x)
        g = -(inner.blocks @ (evaluate(inner.theta, lam).conj().T @ x))
        c_m = g[-1] + np.conj(lam) * window[-1]
        steps = np.abs(lam) ** (2 * np.arange(4000))  # |lam|^(2j) is below 1e-178 past j = 4000 at |lam| <= 0.95
        assert tail == pytest.approx(frobenius(c_m) * np.sqrt(steps.sum()), rel=1e-12, abs=0)
        old = frobenius(c_m) * np.sqrt(steps[: inner.m + 1].sum())
        assert tail >= old * (1 - 4 * np.finfo(float).eps)  # equal to rounding once |lam|^(2m+2) < eps


OUTSIDE = [np.nan, complex(np.nan, 0.0), complex(0.0, np.nan), np.inf]


@pytest.mark.parametrize("lam", OUTSIDE, ids=["nan", "nan-real", "nan-imag", "inf"])
@pytest.mark.parametrize("call", [
    lambda basis, lam: kernel(basis.inner, lam, [1.0, 0.0]),
    lambda basis, lam: tilde_kernel(basis.inner, lam, [1.0, 0.0]),
    kernel_frame,
    tilde_kernel_frame,
    lambda basis, lam: finite_rank(basis, lam, np.eye(2)),
], ids=["kernel", "tilde_kernel", "kernel_frame", "tilde_kernel_frame", "finite_rank"])
def test_a_kernel_point_off_the_open_disk_is_refused_as_bad_input(call, lam):
    with pytest.raises(ValueError, match="kernel points must lie in the open unit disk"):
        call(ModelSpaceBasis(fixture("FIX3")), lam)


@pytest.mark.parametrize("fn", [kernel, tilde_kernel])
@pytest.mark.parametrize("shape", [(), (3,), (1, 2), (2, 2, 1)])
def test_directions_of_another_shape_are_refused(fn, shape):
    with pytest.raises(ValueError, match="expected a vector in C\\^2 or a block of 2 rows"):
        fn(fixture("FIX3"), 0.3, np.ones(shape))
