"""Laurent construction on the hot paths, pinned to the loops it replaced.

Every Laurent object goes through `_Laurent.__init__`, which trims exact
zero edge blocks and refuses non-finite coefficients.  The per-block trim
loop and the double loop `kernel` once ran are kept here as references
(the loop equals `element_oracles.kernel_series` bit for bit, and the
recurrence `kernel` runs now stays within 1e-15 (1 + ||x||) of it), and
the finiteness checks are exercised on every entry point that has one,
including results that overflow from finite inputs.
"""

import numpy as np
import pytest

from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent, VecLaurent, _trim, evaluate, multiply
from mttokit.model_operator import OperatorMatrix
from mttokit.model_space import ModelSpaceBasis, kernel
from mttokit.numerics import as_cmatrix
from mttokit.randgen import random_inner
from mttokit.serialize import canonical_json, laurent_to_json

from element_oracles import kernel_series


def trim_oracle(lo, coeffs):
    """The per-block loop `_trim` replaced."""
    nz = [k for k in range(coeffs.shape[0]) if np.any(coeffs[k])]
    if not nz:
        return 0, np.zeros((1,) + coeffs.shape[1:], dtype=np.complex128)
    return lo + nz[0], np.ascontiguousarray(coeffs[nz[0] : nz[-1] + 1])


def kernel_window_oracle(basis, lam, x):
    """The (2m+1)·m double loop `kernel` once ran, all 2m + 1 blocks."""
    inner = basis.inner
    m, d = inner.m, inner.d
    g = np.zeros((m + 1, d), dtype=np.complex128)
    g[0] = x
    tx = evaluate(inner.theta, lam).conj().T @ x
    for k in range(m + 1):
        g[k] -= inner.theta.coeff(k) @ tx
    lb = np.conj(lam)
    c = np.zeros((2 * m + 1, d), dtype=np.complex128)
    for k in range(2 * m + 1):
        for i in range(0, min(k, m) + 1):
            c[k] += lb ** (k - i) * g[i]
    return c


def _random_block(shape, kind, rng):
    if kind == "zero":
        return np.zeros(shape, dtype=np.complex128)
    if kind == "negzero":
        return np.full(shape, complex(-0.0, -0.0))
    if kind == "one_entry":
        out = np.zeros(shape, dtype=np.complex128)
        out.reshape(-1)[rng.integers(out.size)] = complex(rng.standard_normal(), 0.0)
        return out
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_trim_equals_the_per_block_loop():
    rng = np.random.default_rng(11)
    kinds = ["zero", "negzero", "one_entry", "dense"]
    for _ in range(400):
        block_shape = (3, 3) if rng.integers(2) else (3,)
        count = int(rng.integers(1, 7))
        coeffs = np.stack([_random_block(block_shape, kinds[rng.integers(4)], rng) for _ in range(count)])
        lo = int(rng.integers(-4, 5))
        got_lo, got = _trim(lo, coeffs)
        want_lo, want = trim_oracle(lo, coeffs)
        assert type(got_lo) is int and got_lo == want_lo
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


@pytest.mark.parametrize(
    "blocks, lo, want_lo, want_len",
    [
        ([0, 0, 0], 3, 0, 1),  # all zero: canonical zero at frequency 0
        ([1], -2, -2, 1),  # a single block
        ([-0.0, 1, 0, 1, -0.0], 0, 1, 3),  # -0.0 edges are trimmed, zero interior kept
        ([1, -0.0, 1], 5, 5, 3),
    ],
)
def test_trim_edge_cases(blocks, lo, want_lo, want_len):
    coeffs = np.array([b * np.eye(2) for b in blocks], dtype=np.complex128)
    got_lo, got = _trim(lo, coeffs)
    want = trim_oracle(lo, coeffs)
    assert type(got_lo) is int and (got_lo, got.shape[0]) == (want_lo, want_len)
    assert got_lo == want[0] and got.tobytes() == want[1].tobytes()


def test_trimmed_support_serializes():
    f = MatLaurent(np.int64(-1), np.stack([np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]))
    assert type(f.lo) is int
    assert '"lo":0' in canonical_json(laurent_to_json(f))


def test_kernel_equals_the_double_loop():
    rng = np.random.default_rng(2026)
    for _ in range(40):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        basis = ModelSpaceBasis(random_inner(d, m, rng))
        lam = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        x = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        want = kernel_window_oracle(basis, lam, x)
        assert want.tobytes() == kernel_series(basis.inner, lam, x).tobytes()
        got, _ = kernel(basis.inner, lam, x)
        assert np.linalg.norm(got - want[: basis.inner.m]) <= 1e-15 * (1.0 + np.linalg.norm(x))


NON_FINITE = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, np.inf)]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_non_finite_entries_are_refused(bad):
    mat = np.eye(2, dtype=np.complex128)
    mat[1, 0] = bad
    with pytest.raises(ValueError, match="coefficients must be finite"):
        MatLaurent(0, mat[np.newaxis])
    with pytest.raises(ValueError, match="coefficients must be finite"):
        VecLaurent(-1, mat)
    with pytest.raises(ValueError, match="matrix entries must be finite"):
        as_cmatrix(mat)
    basis = ModelSpaceBasis(fixture("FIX1"))
    op = np.zeros((basis.n, basis.n), dtype=np.complex128)
    op[-1, 0] = bad
    with pytest.raises(ValueError, match="operator entries must be finite"):
        OperatorMatrix(basis, op)


def test_overflow_from_finite_inputs_is_refused():
    big = MatLaurent.constant(1e200 * np.eye(2))
    top = MatLaurent(0, np.stack([np.eye(2), 1e308 * np.eye(2)]))
    f = MatLaurent.constant(1e10 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="coefficients must be finite"):
            multiply(big, big)
        with pytest.raises(ValueError, match="coefficients must be finite"):
            multiply(big, VecLaurent.constant([1e200, 0.0]))
        with pytest.raises(ValueError, match="coefficients must be finite"):
            1e300 * f
        with pytest.raises(ValueError, match="coefficients must be finite"):
            top + top
        with pytest.raises(ValueError, match="coefficients must be finite"):
            top - (-1.0) * top
