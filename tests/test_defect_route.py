"""The defect data of a model space pinned to the earlier route.

`defect_spaces` takes one full SVD K = U Sigma V* of each kernel frame at
the origin and reads the basis, the complement basis and the left inverse
off it.  `defect_oracles.frame_basis_and_inverse` computes the basis from
a thin SVD and the inverse with numpy's pinv, as before; the bases must
agree bit for bit and the inverses entry for entry (pinv factors conj(K),
so an exact zero may come out with the other sign).
"""

import numpy as np
import pytest

from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.model_operator import _frame_svd, defect_spaces
from mttokit.model_space import ModelSpaceBasis
from mttokit.randgen import random_inner

from defect_oracles import frame_basis_and_inverse


def _spaces():
    """FIX1-FIX5 (n = d on FIX4 and FIX5) and seeded random spaces."""
    rng = np.random.default_rng(2024)
    shapes = [(1, 1), (2, 1), (3, 1), (1, 4), (2, 3), (3, 2), (4, 3), (5, 2)]
    return [ModelSpaceBasis(fixture(name)) for name in FIXTURE_NAMES] + [
        ModelSpaceBasis(random_inner(d, m, rng)) for d, m in shapes for _ in range(3)
    ]


SPACES = _spaces()


@pytest.mark.parametrize("basis", SPACES, ids=lambda b: f"{b.inner.d}x{b.inner.m}-{b.basis_id[:8]}")
def test_bases_and_inverses_match_the_earlier_route(basis):
    ds = defect_spaces(basis)
    for frame, q, kp in ((ds.d_frame, ds.d_basis, ds.d_pinv), (ds.dt_frame, ds.dt_basis, ds.dt_pinv)):
        want_q, want_kp = frame_basis_and_inverse(frame)
        assert q.tobytes() == want_q.tobytes()
        np.testing.assert_array_equal(kp, want_kp)


@pytest.mark.parametrize("basis", SPACES, ids=lambda b: f"{b.inner.d}x{b.inner.m}-{b.basis_id[:8]}")
def test_basis_and_complement_are_unitary(basis):
    ds = defect_spaces(basis)
    eye = np.eye(basis.n)
    for q, comp, p, p_perp in ((ds.d_basis, ds.comp_d, ds.p_d, ds.p_d_perp), (ds.dt_basis, ds.comp_dt, ds.p_dt, ds.p_dt_perp)):
        full = np.hstack([q, comp])
        assert full.shape == (basis.n, basis.n)
        assert np.abs(full.conj().T @ full - eye).max() <= 1e-12
        assert np.abs(p - q @ q.conj().T).max() == 0.0 and np.abs(p + p_perp - eye).max() == 0.0


def test_rank_deficient_frame_is_refused():
    with pytest.raises(IdentityCheckError, match="did not come out d-dimensional"):
        _frame_svd(np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]], dtype=np.complex128))
    with pytest.raises(IdentityCheckError, match="did not come out d-dimensional"):
        _frame_svd(np.zeros((3, 2), dtype=np.complex128))
