import numpy as np
import pytest

from mttokit import model_operator
from mttokit.errors import NotGammaSymmetricError, NotUnitaryError
from mttokit.fixtures import fixture
from mttokit.laurent import VecLaurent
from mttokit.model_operator import (
    Conjugation,
    OperatorMatrix,
    action_check,
    c_symmetric,
    conjugation_matrix,
    defect_spaces,
    gamma_symmetric_residual,
    j_operators,
    kernel_recurrence_check,
    off_span,
    s_theta,
    xhat,
)
from mttokit.model_space import ModelSpaceBasis
from mttokit.mtto import build, is_mtto
from mttokit.numerics import opnorm, rank
from mttokit.randgen import random_symbol

from element_oracles import element_coords
from suite_oracles import apply, conjugation_apply, element, from_coords, l2_inner

ALL_FIXTURES = ("FIX1", "FIX2", "FIX3", "FIX4", "FIX5")


def _basis(name):
    return ModelSpaceBasis(fixture(name))


def test_shift_matrices_on_scalar_fixtures():
    s1, _ = s_theta(_basis("FIX1"))
    np.testing.assert_allclose(s1, np.zeros((1, 1)), atol=1e-14)
    s2, s2_adj = s_theta(_basis("FIX2"))
    np.testing.assert_allclose(s2, [[0.0, 0.0], [1.0, 0.0]], atol=1e-14)
    np.testing.assert_allclose(s2_adj, s2.conj().T, atol=1e-14)


def test_shift_matrix_fix3_moves_second_coordinate_up():
    s, _ = s_theta(_basis("FIX3"))  # the basis is (0, 1), (1, 0), z (0, 1)
    want = np.zeros((3, 3))
    want[2, 0] = 1.0
    np.testing.assert_allclose(s, want, atol=1e-14)


def test_shift_is_nilpotent_of_order_m():
    for name in ALL_FIXTURES:
        basis = _basis(name)
        s, _ = s_theta(basis)
        power = np.linalg.matrix_power(s, basis.inner.m)
        assert opnorm(power) <= 1e-12


def test_shift_norm_is_strictly_below_one():
    for name in ALL_FIXTURES:
        s, _ = s_theta(_basis(name))
        assert opnorm(s) <= 1.0 + 1e-12


def test_operator_matrix_apply_and_adjoint():
    basis = _basis("FIX2")
    s, s_adj = s_theta(basis)
    one = VecLaurent(0, [[1.0]])
    np.testing.assert_allclose(element_coords(basis, apply(OperatorMatrix(basis, s), one)),
                               element_coords(basis, VecLaurent(1, [[1.0]])), atol=1e-14)
    back = apply(OperatorMatrix(basis, s_adj), VecLaurent(1, [[1.0]]))
    assert (back - one).norm() <= 1e-12
    with pytest.raises(ValueError):
        OperatorMatrix(basis, np.zeros((3, 3)))


def test_defect_spaces_fix3_are_constants_and_quotients():
    basis = _basis("FIX3")
    ds = defect_spaces(basis)
    assert ds.dim == 2
    span_d = np.abs(ds.d_basis)  # the basis is (0, 1), (1, 0), z (0, 1)
    np.testing.assert_allclose(span_d, np.array([[0, 1], [1, 0], [0, 0]]), atol=1e-12)
    span_dt = np.abs(ds.dt_basis)
    np.testing.assert_allclose(span_dt, np.array([[0, 0], [1, 0], [0, 1]]), atol=1e-12)


def test_defect_spaces_fill_everything_when_n_equals_d():
    for name in ("FIX4", "FIX5"):
        basis = _basis(name)
        ds = defect_spaces(basis)
        assert ds.dim == basis.inner.d == basis.n
        np.testing.assert_allclose(ds.d_basis @ ds.d_basis.conj().T, np.eye(basis.n), atol=1e-10)


def test_action_check_passes_on_all_fixtures():
    for name in ALL_FIXTURES:
        report = action_check(_basis(name))
        assert report["pass"], (name, report)
        assert report["max_residual"] <= 1e-9


def test_omega_inverts_the_kernel_frame_and_extracts_values_at_zero():
    for name in ALL_FIXTURES:
        basis = _basis(name)
        ds = defect_spaces(basis)
        for kp, frame in ((ds.d_pinv, ds.d_frame), (ds.dt_pinv, ds.dt_frame)):
            np.testing.assert_allclose(kp @ frame, np.eye(ds.dim), atol=1e-10)
            np.testing.assert_allclose(frame @ kp, frame @ kp @ frame @ kp, atol=1e-10)
        s, s_adj = s_theta(basis)
        g = np.eye(basis.n) - s @ s_adj
        assert opnorm(ds.d_pinv @ g - basis.q[: basis.inner.d]) <= 1e-10


def test_frame_inverses_are_computed_once_per_basis(monkeypatch):
    """Exactly two SVDs of frame size (n x d or d x n) and no pinv per new
    basis, none on repeated membership questions; the cached inverses are
    read-only."""
    frame_svds, frame_shape, pinvs = [], (), []
    svd, pinv = np.linalg.svd, np.linalg.pinv

    def counted(a, *args, **kwargs):
        if np.shape(a) in (frame_shape, frame_shape[::-1]):
            frame_svds.append(a)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    monkeypatch.setattr(np.linalg, "pinv", lambda *args, **kwargs: pinvs.append(args) or pinv(*args, **kwargs))
    rng = np.random.default_rng(12)
    for name in ("FIX2", "FIX3"):
        basis = _basis(name)
        a = build(basis, random_symbol(basis.inner.d, -2, 2, rng)).mat
        frame_svds.clear()
        frame_shape = (basis.n, basis.inner.d)
        ds = defect_spaces(basis)
        assert len(frame_svds) == 2 and pinvs == []
        for _ in range(5):
            assert is_mtto(basis, a).verdict
        assert len(frame_svds) == 2
        assert ds.d_pinv is defect_spaces(basis).d_pinv and not ds.dt_pinv.flags.writeable


def test_j_operator_fix3_is_the_defect_projector():
    basis = _basis("FIX3")
    j, jt = j_operators(basis)
    np.testing.assert_allclose(j, np.diag([1.0, 1.0, 0.0]), atol=1e-10)
    np.testing.assert_allclose(jt, np.diag([0.0, 1.0, 1.0]), atol=1e-10)  # the basis is (0, 1), (1, 0), z (0, 1)


def test_xhat_identity_block_fix3():
    basis = _basis("FIX3")
    op = xhat(basis, np.eye(2))
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    want[0, 2] = 1.0
    np.testing.assert_allclose(op.mat, want, atol=1e-12)


def test_xhat_preserves_rank():
    rng = np.random.default_rng(21)
    basis = _basis("FIX5")
    ds = defect_spaces(basis)
    for r in range(ds.dim + 1):
        a = rng.standard_normal((ds.dim, r)) + 1j * rng.standard_normal((ds.dim, r))
        b = rng.standard_normal((r, ds.dim)) + 1j * rng.standard_normal((r, ds.dim))
        x = a @ b if r else np.zeros((ds.dim, ds.dim))
        assert rank(xhat(basis, x).mat) == rank(x) == r


def modified_shift(basis, ds, x):
    """Replace the shift on the second defect space by the block x:
    S (I - U~ U~*) + xhat(x), with U~ the second defect basis."""
    return off_span(s_theta(basis)[0], ds.dt_basis) + xhat(basis, x).mat


def test_modified_shift_recovers_the_shift_and_stays_contractive():
    rng = np.random.default_rng(22)
    for name in ("FIX3", "FIX5"):
        basis = _basis(name)
        ds = defect_spaces(basis)
        s, _ = s_theta(basis)
        x_rec = ds.d_basis.conj().T @ s @ ds.dt_basis
        np.testing.assert_allclose(modified_shift(basis, ds, x_rec), s, atol=1e-10)
        zero = modified_shift(basis, ds, np.zeros((ds.dim, ds.dim)))
        p_dt = ds.dt_basis @ ds.dt_basis.conj().T
        np.testing.assert_allclose(zero, s @ (np.eye(basis.n) - p_dt), atol=1e-12)
        for _ in range(5):
            x = rng.standard_normal((ds.dim, ds.dim)) + 1j * rng.standard_normal((ds.dim, ds.dim))
            x /= max(1.0, opnorm(x))
            assert opnorm(modified_shift(basis, ds, x)) <= 1.0 + 1e-10


def test_conjugation_validation():
    with pytest.raises(NotUnitaryError):
        Conjugation(2 * np.eye(2))
    with pytest.raises(ValueError):
        Conjugation(np.array([[0.0, 1.0], [-1.0, 0.0]]))  # unitary but antisymmetric


def test_conjugation_refuses_an_overflowing_matrix_without_a_warning():
    # U*U overflows to inf: the gate refuses the infinite residual, and
    # forming it warns of nothing (warnings are errors in the tests)
    with pytest.raises(NotUnitaryError, match="not unitary"):
        Conjugation(1e200 * np.eye(2))


def test_conjugation_on_scalar_double_shift_sends_one_to_z():
    basis = _basis("FIX2")
    gamma = Conjugation(np.eye(1))
    image = conjugation_apply(basis, gamma, VecLaurent(0, [[1.0]]))
    assert (image - VecLaurent(1, [[1.0]])).norm() <= 1e-12


def test_conjugation_matrix_fix3_swaps_the_tail_pair():
    basis = _basis("FIX3")
    mat = conjugation_matrix(basis, Conjugation(np.eye(2)))
    want = np.array([[0, 0, 1.0], [0, 1.0, 0], [1.0, 0, 0]])
    np.testing.assert_allclose(mat, want, atol=1e-12)


def test_conjugation_is_an_antiunitary_involution():
    rng = np.random.default_rng(23)
    basis = _basis("FIX3")
    gamma = Conjugation(np.eye(2))
    for _ in range(6):
        f = from_coords(basis, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        g = from_coords(basis, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        cf = conjugation_apply(basis, gamma, f)
        cg = conjugation_apply(basis, gamma, g)
        assert (conjugation_apply(basis, gamma, cf) - f).norm() <= 1e-12 * (1 + f.norm())
        assert abs(l2_inner(cf, cg) - l2_inner(g, f)) <= 1e-12 * (1 + f.norm() * g.norm())


def test_conjugation_requires_gamma_symmetric_theta():
    basis = _basis("FIX5")
    gamma = Conjugation(np.eye(2))
    assert gamma_symmetric_residual(basis.inner.theta, gamma) > 0.1
    with pytest.raises(NotGammaSymmetricError):
        conjugation_apply(basis, gamma, element(basis, 0))


def test_shift_is_c_symmetric_but_the_lower_corner_symbol_operator_is_not():
    basis = _basis("FIX3")
    gamma = Conjugation(np.eye(2))
    s, _ = s_theta(basis)
    ok, res = c_symmetric(basis, gamma, s)
    assert ok and res <= 1e-10
    a = np.zeros((3, 3), dtype=complex)
    a[1, 0] = 1.0  # sends the first constant to the second
    bad, res_bad = c_symmetric(basis, gamma, a)
    assert not bad and res_bad > 0.5


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_c_symmetry_verdict_does_not_depend_on_scale(scale):
    basis = _basis("FIX3")
    gamma = Conjugation(np.eye(2))
    s, _ = s_theta(basis)
    ok, res = c_symmetric(basis, gamma, scale * s)
    assert ok and res <= 1e-12 * scale
    a = np.zeros((3, 3), dtype=complex)
    a[1, 0] = scale
    bad, res_bad = c_symmetric(basis, gamma, a)
    assert not bad and res_bad == pytest.approx(np.sqrt(2) * scale)  # two entries of size scale, Frobenius


def test_kernel_recurrences_hold_on_fixtures():
    for name in ("FIX2", "FIX3", "FIX4", "FIX5"):
        report = kernel_recurrence_check(_basis(name), count=10, seed=3)
        assert report["pass"], (name, report)
