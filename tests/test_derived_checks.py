"""Consequences of the defect identity and of purity, held as oracles.

Two facts make run-time checks redundant, and these tests pin them down:

- recover_symbol's rebuild A_Psi is A - sum_{k<m} S^k E S*^k with
  E = P (A - S A S*) P, the member behind the upper end of the distance
  bracket, so ||A - A_Psi||_F <= m * membership residual up to rounding,
  and A_Psi passes the membership test at rounding level;
- for Q spanning K_Theta the kernel frames at 0 have K0* K0 =
  I - Theta(0) Theta(0)* and K0~* K0~ = I - Theta(0)* Theta(0), so
  sigma_min of each is sqrt(1 - ||Theta(0)||^2), within what the frame
  check of `defect_spaces` lets through, and the left inverses of
  `_frame_svd` satisfy K+ K = I to CHECK_TOL with no rank cut.

Spaces: FIX1-FIX5, seeded random spaces, near-impure spaces down to a
purity margin of 3e-9, and the nearly parallel Potapov families of
test_conditioning_family.
"""

import numpy as np
import pytest

from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import boundary_adjoint
from mttokit.model_operator import defect_spaces
from mttokit.model_space import InnerFunction, ModelSpaceBasis, potapov_product
from mttokit.mtto import build, is_mtto, recover_symbol
from mttokit.numerics import CHECK_TOL, RANK_CUT, frobenius, rank_of_singular_values
from mttokit.randgen import random_inner, random_symbol

from division_oracles import near_impure_space
from membership_oracles import frame_rounding, rebuild_bound, shift_series_member
from test_conditioning_family import _cases as conditioning_cases

MOVES = (0.0, 0.0, 1e-12, 1e-6)  # two exact members, then members moved by a Gaussian of that relative size


def _spaces():
    yield from ((name, ModelSpaceBasis(fixture(name))) for name in FIXTURE_NAMES)
    rng = np.random.default_rng(47)
    for d, m in [(1, 1), (2, 1), (1, 4), (2, 3), (3, 2), (4, 3), (5, 2), (2, 6), (6, 2), (8, 1)]:
        for k in range(2):
            yield f"random-{d}x{m}-{k}", ModelSpaceBasis(random_inner(d, m, rng))
    for margin in (1e-3, 1e-5, 1e-7, 3e-9):
        yield f"near-impure-{margin}", near_impure_space(margin)
    for case in conditioning_cases():
        yield case.id, ModelSpaceBasis(InnerFunction(*potapov_product(case.values[1])))


SPACES = list(_spaces())


@pytest.mark.parametrize("basis", [b for _, b in SPACES], ids=[label for label, _ in SPACES])
def test_the_rebuild_is_the_member_behind_the_upper_end_of_the_bracket(basis):
    rng = np.random.default_rng(int(basis.basis_id[-8:], 16))
    n, d, m = basis.n, basis.inner.d, basis.inner.m
    for move in MOVES:
        member = build(basis, random_symbol(d, -3, 3, rng)).mat
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = member + move * np.linalg.norm(member) * g / np.linalg.norm(g)
        scale, rounding = np.linalg.norm(a), frame_rounding(basis)
        decision = is_mtto(basis, a)
        rec = recover_symbol(basis, a, tol=max(decision.tol, decision.residual))
        assert rec.membership_residual == decision.residual
        assert rec.residual <= rebuild_bound(m, rec.membership_residual, scale, rounding), (move, rec)
        rebuilt = build(basis, rec.psi1 + boundary_adjoint(rec.psi2)).mat
        assert abs(frobenius(rebuilt - a) - rec.residual) <= rounding * scale
        assert frobenius(rebuilt - shift_series_member(basis, a)) <= rounding * scale, move
        assert is_mtto(basis, rebuilt, rounding * scale).verdict, move


@pytest.mark.parametrize("basis", [b for _, b in SPACES], ids=[label for label, _ in SPACES])
def test_purity_makes_each_defect_frame_rank_d(basis):
    ds, d = defect_spaces(basis), basis.inner.d
    root = np.sqrt(1.0 - np.linalg.norm(basis.inner.blocks[0], 2) ** 2)
    for frame, kp in ((ds.d_frame, ds.d_pinv), (ds.dt_frame, ds.dt_pinv)):
        sv = np.linalg.svd(frame, compute_uv=False)
        assert abs(sv[-1] - root) <= np.sqrt(d) * CHECK_TOL
        assert sv[-1] > RANK_CUT * sv[0] * max(frame.shape) and rank_of_singular_values(sv, frame.shape) == d
        assert frobenius(kp @ frame - np.eye(d)) <= CHECK_TOL
