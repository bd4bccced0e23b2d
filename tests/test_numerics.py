import math
import warnings

import numpy as np
import pytest

from mttokit.numerics import frobenius, nullspace, opnorm, rank, solve_min_norm


def _haar_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_rank_threshold_is_relative():
    assert rank(np.diag([1.0, 1e-14])) == 1
    assert rank(np.eye(4)) == 4
    assert rank(np.zeros((3, 5))) == 0


def test_rank_invariant_under_unitaries():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        a[:, 3] = a[:, 0] - 2 * a[:, 1]
        u = _haar_unitary(5, rng)
        v = _haar_unitary(4, rng)
        assert rank(u @ a @ v) == rank(a) == 3


def test_solve_min_norm_inconsistent_system():
    a = np.array([[1.0], [0.0]])
    b = np.array([0.0, 1.0])
    x, resid = solve_min_norm(a, b)
    np.testing.assert_allclose(x, [0.0], atol=1e-12)
    assert abs(resid - 1.0) <= 1e-12


def test_solve_min_norm_picks_shortest_solution():
    a = np.array([[1.0, 1.0]])
    b = np.array([2.0])
    x, resid = solve_min_norm(a, b)
    assert resid <= 1e-12
    np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_min_norm_residual_is_projection_onto_complement():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        _, resid = solve_min_norm(a, b)
        q, _ = np.linalg.qr(a)
        expected = np.linalg.norm(b - q @ (q.conj().T @ b))
        assert abs(resid - expected) <= 1e-10


def test_nullspace_and_complement_are_orthonormal_and_complete():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    ns = nullspace(a)
    assert ns.shape == (5, 2)
    assert np.linalg.norm(a @ ns) <= 1e-12
    comp = nullspace(ns.conj().T)
    full = np.hstack([ns, comp])
    np.testing.assert_allclose(full.conj().T @ full, np.eye(5), atol=1e-12)


def test_opnorm_equals_numpy_spectral_norm_bit_for_bit():
    rng = np.random.default_rng(17)
    for shape in [(1, 1), (1, 5), (7, 1), (3, 3), (8, 8), (13, 13)]:
        for _ in range(5):
            a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            assert opnorm(a) == float(np.linalg.norm(a, 2))
    for empty in [np.zeros((0, 3)), np.zeros((4, 0)), []]:
        assert opnorm(empty) == 0.0


def _layouts(rng):
    """Seeded complex and real arrays in every memory layout `frobenius`
    meets: C- and F-order, transposed, strided slices, 1-d, 3-d, 0-size."""
    for shape in [(1,), (7,), (64,), (1, 1), (5, 3), (16, 16), (31, 9), (4, 3, 5), (8, 2, 6)]:
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for a in (z, z.real.copy()):
            yield a
            yield np.asfortranarray(a)
            yield a.T
            yield a[::2]
            if a.ndim > 1:
                yield a[:, ::-2]
                yield np.asfortranarray(a)[1:, ::3]
    yield from (np.zeros(shape, dtype=dt) for shape in [(0,), (0, 4), (3, 0, 2)] for dt in (float, complex))


@pytest.mark.parametrize("exponent", [-140, -100, -40, -8, 0, 8, 40, 100, 140])
def test_frobenius_is_numpys_norm_bit_for_bit(exponent):
    rng = np.random.default_rng(300 + exponent)
    for a in _layouts(rng):
        a = a * 10.0**exponent
        assert frobenius(a) == float(np.linalg.norm(a)), (a.shape, a.strides, a.dtype)


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_frobenius_rescales_outside_the_safe_range_without_a_warning(scale):
    rng = np.random.default_rng(17)
    for a in _layouts(rng):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frobenius(scale * a)
        want = float(np.linalg.norm(a))
        assert math.isfinite(got) and abs(got - scale * want) <= 1e-14 * scale * want, (a.shape, a.dtype)


def test_frobenius_of_nan_is_nan_and_of_inf_is_inf():
    for dt in (float, complex):
        a = np.ones((3, 4), dtype=dt)
        a[1, 2] = np.nan
        assert math.isnan(frobenius(a))
        a[1, 2] = np.inf
        assert frobenius(a) == math.inf
        a[0, 0] = np.nan
        assert math.isnan(frobenius(a))
    assert frobenius(np.array([complex(0.0, -np.inf), 1.0])) == math.inf
