"""The shift-action and kernel-recurrence checks pinned to the Laurent route.

`action_check` and `kernel_recurrence_check` state each identity as one
residual over the window matrix of the whole basis or kernel frame.
`check_oracles.action_check_loop` tests the same identities one column at
a time through Laurent objects and the closed-form kernels.  A check that
only reads 0 on working code shows nothing, so both are run on a shift
that is off by 1e-6 after the defect spaces were cached: the window route
must report what the column loops report, and every recurrence must see
the error.
"""

import numpy as np
import pytest

from mttokit.fixtures import fixture
from mttokit.model_operator import action_check, defect_spaces, kernel_recurrence_check, s_theta
from mttokit.model_space import ModelSpaceBasis
from mttokit.randgen import random_inner

from check_oracles import action_check_loop

SPACES = ["FIX2", "FIX3", "FIX4", "FIX5", (1, 4, 21), (2, 3, 22), (3, 5, 23), (4, 6, 24)]
NAMES = [
    "shift acts as multiplication off the second defect space",
    "shift sends difference-quotient directions into the first defect space",
    "adjoint shift divides by z off the first defect space",
    "adjoint shift sends kernel directions into the second defect space",
    "shift maps second defect space into first",
    "shift maps second complement into first complement",
    "adjoint shift maps first defect space into second",
    "adjoint shift maps first complement into second complement",
    "defect operator is evaluation at zero followed by the kernel frame",
]


def _basis(space):
    if isinstance(space, str):
        return ModelSpaceBasis(fixture(space))
    d, m, seed = space
    return ModelSpaceBasis(random_inner(d, m, np.random.default_rng(seed)))


def _perturb_shift(basis, size=1e-6, seed=0):
    """Replace the cached S (and S*, as its adjoint) by S + size * E with
    ||E||_F = 1, after the defect spaces were computed from the true S."""
    defect_spaces(basis)
    rng = np.random.default_rng(seed)
    e = rng.standard_normal((basis.n, basis.n)) + 1j * rng.standard_normal((basis.n, basis.n))
    s = s_theta(basis)[0] + size * e / np.linalg.norm(e)
    basis.cache["shift"] = (s, s.conj().T)


def _residuals(report):
    return {c["name"]: c["residual"] for c in report["checks"]}


@pytest.mark.parametrize("space", SPACES, ids=str)
@pytest.mark.parametrize("perturbed", [False, True])
def test_action_check_matches_the_column_loops(space, perturbed):
    basis = _basis(space)
    if perturbed:
        _perturb_shift(basis)
    got = _residuals(action_check(basis))
    want = action_check_loop(basis)
    assert list(got) == NAMES == list(want)
    for name in NAMES:
        assert abs(got[name] - want[name]) <= 1e-13, name
    if perturbed:
        assert max(got.values()) >= 1e-7


@pytest.mark.parametrize("space", SPACES, ids=str)
def test_every_kernel_recurrence_sees_a_perturbed_shift(space):
    basis = _basis(space)
    clean = kernel_recurrence_check(basis, count=5, seed=1)
    assert clean["pass"] and clean["max_residual"] <= 1e-12
    _perturb_shift(basis)
    report = kernel_recurrence_check(basis, count=5, seed=1)
    assert not report["pass"]
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in clean["checks"]]
    for check in report["checks"]:
        assert check["residual"] >= 1e-7, check
