"""The model-space basis pinned to the ambient-space Gram-Schmidt.

`ModelSpaceBasis` orthogonalizes the coordinates N* e_j of the projected
unit vectors in the kernel frame N that `InnerFunction` keeps from its one
SVD of the constraint matrix.  `basis_oracles.gram_schmidt_loop` does the
same work on the m*d dimensional projector columns themselves, and
`fix_column_phases_loop` fixes the phases column by column; both are the
references here.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mttokit.fixtures import FIXTURE_NAMES, fixture  # noqa: E402
from mttokit.model_space import (  # noqa: E402
    InnerFunction,
    ModelSpaceBasis,
    _constraint_matrix,
    potapov_product,
)
from mttokit.numerics import PHASE_CUT, fix_column_phases  # noqa: E402
from mttokit.randgen import haar_unitary, random_inner, random_projection  # noqa: E402

from basis_oracles import fix_column_phases_loop, gram_schmidt_loop  # noqa: E402

# (d, m, seed) of seeded random spaces; the last has n >= 120
SEEDED = [(1, 4, 11), (2, 3, 12), (3, 5, 13), (4, 12, 14), (6, 40, 15)]


def _assert_orthonormal_in_kernel(basis):
    q, n = basis.q, basis.n
    assert q.shape == (basis.inner.m * basis.inner.d, n)
    assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-12
    assert np.abs(_constraint_matrix(basis.inner.theta) @ q).max() <= 1e-12


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_basis_matches_the_ambient_loop(name):
    inner = fixture(name)
    q, want = ModelSpaceBasis(inner).q, gram_schmidt_loop(inner)
    assert np.abs(q - want).max() <= 1e-12
    if name != "FIX5":  # exact data: the two orders of rounding agree bit for bit
        assert q.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, m, seed", SEEDED)
def test_seeded_basis_matches_the_ambient_loop(d, m, seed):
    inner = random_inner(d, m, np.random.default_rng(seed))
    basis = ModelSpaceBasis(inner)
    assert np.abs(basis.q - gram_schmidt_loop(inner)).max() <= 1e-12
    _assert_orthonormal_in_kernel(basis)


def test_seeded_spaces_reach_n_120():
    d, m, seed = SEEDED[-1]
    assert random_inner(d, m, np.random.default_rng(seed)).n >= 120


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_basis_is_orthonormal_inside_the_kernel(d, m, seed):
    _assert_orthonormal_in_kernel(ModelSpaceBasis(random_inner(d, m, np.random.default_rng(seed))))


def _phase_cases():
    rng = np.random.default_rng(21)
    yield np.zeros((0, 3)), "no rows"
    yield np.zeros((4, 0)), "no columns"
    yield np.zeros((5, 3)), "all zero"
    signed = np.zeros((4, 4), dtype=np.complex128)
    signed.real, signed.imag = [[0.0, -0.0, 0.0, -0.0]] * 4, [[0.0, 0.0, -0.0, -0.0]] * 4
    yield signed, "signed zeros"  # multiplying by 1 + 0j would flip some of them
    for k in range(40):
        rows, cols = rng.integers(1, 12, size=2)
        q = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) * 10.0 ** rng.integers(-12, 6)
        q[:, rng.integers(cols)] = 0.0
        q[: rows // 2, rng.integers(cols)] *= PHASE_CUT / 10  # pivot below the cut
        q[rng.integers(rows)] = complex(-0.0, -0.0) if k % 2 else -0.0
        yield q, f"random {k}"


@pytest.mark.parametrize("q, label", list(_phase_cases()))
def test_vectorized_phase_fix_is_bit_equal_to_the_loop(q, label):
    assert fix_column_phases(q).tobytes() == fix_column_phases_loop(q).tobytes()


@pytest.mark.parametrize("d, ranks", [(2, [1, 2, 1]), (3, [2, 3, 1, 2]), (4, [1, 3, 2])])
@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_constraint_matrix_is_factored_once(monkeypatch, d, ranks, kind):
    rng = np.random.default_rng(sum(ranks))
    theta, potapov = potapov_product([random_projection(d, r, rng) for r in ranks], haar_unitary(d, rng))
    md = theta.hi * theta.dim
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    basis = ModelSpaceBasis(InnerFunction(theta, potapov if kind == "potapov" else None))
    assert basis.n == sum(ranks)
    assert shapes.count((md, md)) == 1
