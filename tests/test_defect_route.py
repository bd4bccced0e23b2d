"""The defect data of a model space pinned to the earlier route.

`defect_spaces` takes one thin SVD K = U Sigma V* of each kernel frame at
the origin and reads the basis and the left inverse off it; it keeps no
n x n array.  `defect_oracles.frame_basis_and_inverse` computes the basis from
a thin SVD and the inverse with numpy's pinv, as before; the bases must
agree bit for bit and the inverses entry for entry (pinv factors conj(K),
so an exact zero may come out with the other sign).  The kernel window at
0 that the frame check reads is formed once per space and kept beside the
frames: `kernel_recurrence_check` reads it from there.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit import model_operator, model_space
from mttokit.model_operator import defect_spaces, kernel_recurrence_check
from mttokit.model_space import ModelSpaceBasis, kernel
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
def test_bases_are_orthonormal_and_every_array_is_rank_d(basis):
    ds = defect_spaces(basis)
    n, d = basis.n, basis.inner.d
    for q, frame, kp in ((ds.d_basis, ds.d_frame, ds.d_pinv), (ds.dt_basis, ds.dt_frame, ds.dt_pinv)):
        assert q.shape == frame.shape == (n, d) and kp.shape == (d, n)
        assert np.abs(q.conj().T @ q - np.eye(d)).max() <= 1e-12
    h = ds.d_frame.conj().T @ ds.d_frame
    assert ds.gram_values.shape == (d,) and ds.gram_vectors.shape == (d, d)
    lam, v = np.linalg.eigh(h)
    assert np.array_equal(ds.gram_values, lam) and np.array_equal(ds.gram_vectors, v)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_a_fresh_basis_forms_the_kernel_at_zero_once(name, monkeypatch):
    points = []

    def counted(inner, lam, x):
        points.append(lam)
        return kernel(inner, lam, x)

    for module in (model_operator, model_space):
        monkeypatch.setattr(module, "kernel", counted)
    basis = ModelSpaceBasis(fixture(name))
    ds = defect_spaces(basis)
    assert kernel_recurrence_check(basis, count=3, seed=0)["pass"]
    defect_spaces(basis)
    assert points == [0.0]
    assert np.array_equal(ds.d_window, kernel(basis.inner, 0.0, np.eye(basis.d))[0])
    assert not ds.d_window.flags.writeable
