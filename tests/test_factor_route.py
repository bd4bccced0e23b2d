"""The basis of a Potapov payload, read off its factors.

For Theta = U B_1 ... B_k with B_j = I - P_j + z P_j, K_Theta is the
orthogonal sum of the spaces U B_1 ... B_(j-1) ran P_j, so
`ModelSpaceBasis` writes column group j as H_(j-1) V_j, V_j the first
r_j Gram-Schmidt directions of the columns of P_j.  The checks here:

- on FIX1-FIX5, the seeded spaces and the 62 conditioning-family spaces,
  the basis is orthonormal, lies under the gate with no repair, and spans
  the space the Gram-Schmidt basis of the same Theta's coefficients does,
  within 1e-12;
- up to the n = 240 cell's 80 factors, ||Q* Q - I||_F stays within
  k sqrt(m d) eps of 0 for k factors;
- a factor basis above the gate takes the coefficient route's repair
  (qr(P Q)), or its refusal, with the gate patched;
- each column's phase comes from its first entry within PHASE_TIE of its
  largest, which the repair of the nested-pair case (eps 1e-2, count 8, seed 1) no longer moves;
- the published bytes of `space basis` do not depend on the BLAS thread
  count, for a Potapov and a coefficient payload of the n = 240 cell.

The same groups in rational arithmetic are in test_factor_route_exact.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mttokit import model_space, serialize
from mttokit.errors import IdentityCheckError
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES
from mttokit.model_space import InnerFunction, ModelSpaceBasis, make_inner_potapov, off_space, potapov_product
from mttokit.numerics import PHASE_TIE, fix_column_phases
from mttokit.randgen import random_inner

from basis_oracles import SEEDED, potapov_cell, turned_off
from json_files import dump_json_file, inner_to_json
from test_conditioning_family import _cases as conditioning_cases, nested_pairs_d3

ROOT = Path(__file__).resolve().parents[1]


def _gate(inner):
    return model_space.OFF_ULPS * inner.m * inner.d * np.finfo(np.float64).eps


def _spaces():
    """(label, Potapov InnerFunction): FIX1-FIX5, the seeded spaces and the conditioning family."""
    for name in FIXTURE_NAMES:
        yield name, make_inner_potapov(FIXTURE_FACTORS[name])
    for d, m, seed in SEEDED:
        yield f"seeded {d}x{m}", random_inner(d, m, np.random.default_rng(seed))
    for case in conditioning_cases():
        yield case.id, make_inner_potapov(case.values[1])


SPACES = list(_spaces())


def test_the_family_has_62_spaces():
    assert len(SPACES) == len(FIXTURE_NAMES) + len(SEEDED) + 62


@pytest.mark.parametrize("label, inner", SPACES, ids=[label for label, _ in SPACES])
def test_the_factor_basis_is_orthonormal_under_the_gate_and_spans_the_coefficient_basis(label, inner, monkeypatch):
    monkeypatch.setattr(model_space, "window_projector", lambda blocks: pytest.fail("repaired"))
    q = ModelSpaceBasis(inner).q
    assert q.shape == (inner.m * inner.d, inner.n)
    assert np.abs(q.conj().T @ q - np.eye(inner.n)).max() <= 1e-13
    assert off_space(inner, q).max() <= _gate(inner)
    monkeypatch.undo()
    gram_schmidt = ModelSpaceBasis(InnerFunction(inner.theta)).q
    assert np.abs(q @ q.conj().T - gram_schmidt @ gram_schmidt.conj().T).max() <= 1e-12


@pytest.mark.parametrize("count", [10, 20, 40, 80])
def test_the_factor_basis_stays_orthonormal_as_the_factor_count_grows(count):
    """Each column group carries the rounding of up to k - 1 running
    products, so ||Q* Q - I||_F grows with the factor count k where the 62
    spaces above stay small.  It read 9.6e-15, 2.0e-14, 3.7e-14 and 8.5e-14
    for k = 10, 20, 40, 80 (rank-3 factors at d = 6, 80 of them the n = 240
    cell), about 4.5 k eps, and is pinned to k sqrt(m d) eps, 3.9e-13 at
    n = 240."""
    inner = make_inner_potapov(*potapov_cell(6, [3] * count, 1))
    q = ModelSpaceBasis(inner).q
    bound = count * np.sqrt(inner.m * inner.d) * np.finfo(np.float64).eps
    assert np.linalg.norm(q.conj().T @ q - np.eye(inner.n)) <= bound


def test_a_trimmed_theta_keeps_the_groups_inside_its_window():
    # diag(z, 1) diag(1, z) diag(z, 1) = diag(z^2, z): three factors, degree 2
    inner = make_inner_potapov([np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.diag([1.0, 0.0])])
    assert (inner.m, inner.n, inner.factors[1].shape[0]) == (2, 3, 3)
    q = ModelSpaceBasis(inner).q
    assert np.array_equal(q, np.eye(4)[:, [0, 1, 2]])  # e_1, e_2, z e_1

# --- the repair, the phase pivot and the thread count ----------------------------

@pytest.mark.parametrize("name", ["FIX5", "seeded 3x5", "nested-0.01-8"])
def test_a_factor_basis_above_the_gate_is_repaired_by_the_projector(name, monkeypatch):
    inner = dict(SPACES)[name]
    columns = model_space._factor_basis
    missed = turned_off(columns(inner))
    assert off_space(inner, missed).max() > 1e-5
    built = []
    projector = model_space.window_projector
    monkeypatch.setattr(model_space, "_factor_basis", lambda inner: turned_off(columns(inner)))
    monkeypatch.setattr(model_space, "window_projector", lambda blocks: built.append(1) or projector(blocks))
    basis = ModelSpaceBasis(inner)
    p = projector(inner.blocks)
    assert built == [1]
    assert basis.q.tobytes() == (fix_column_phases(np.linalg.qr(p @ missed)[0]) + 0.0).tobytes()
    assert off_space(inner, basis.q).max() <= _gate(inner)


def test_a_factor_basis_still_above_the_gate_after_the_repair_is_refused(monkeypatch):
    inner = dict(SPACES)["seeded 3x5"]
    monkeypatch.setattr(model_space, "OFF_ULPS", 0)
    with pytest.raises(IdentityCheckError, match=r"left the model space, max \|\|L\* q\|\| \d\.\d{3}e-\d+ after"):
        ModelSpaceBasis(inner)


@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_each_phase_comes_from_a_largest_entry_and_the_repair_keeps_it(kind, monkeypatch):
    # nested pairs, eps 1e-2, count 8, seed 1: under the earlier rule column 11 of the coefficient basis
    # took its phase from an entry of 1.13e-8, and the repair moved its entries by up to 1.19
    theta, factors = potapov_product(nested_pairs_d3(1e-2, 8, 1))
    inner = InnerFunction(theta, factors if kind == "potapov" else None)
    q = ModelSpaceBasis(inner).q
    mags = np.abs(q)
    pivots = q[(mags >= (1.0 - PHASE_TIE) * mags.max(axis=0)).argmax(axis=0), np.arange(inner.n)]
    assert np.abs(pivots).min() > 0.3 and (pivots.real > 0).all() and np.abs(pivots.imag).max() <= 1e-16
    monkeypatch.setattr(model_space, "OFF_ULPS", 2**62)  # no repair
    assert np.abs(ModelSpaceBasis(inner).q - q).max() <= 1e-7  # the coefficient basis is repaired: 1.2e-8


@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_space_basis_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, kind):
    factors, u = potapov_cell(6, [3] * 80, 1)  # the n = 240 cell
    inner = make_inner_potapov(factors, u)
    path = tmp_path / "theta.json"
    dump_json_file(path, inner_to_json(inner, factors, u) if kind == "potapov" else inner_to_json(inner))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, "-m", "mttokit.cli", "space", "basis", "--theta", str(path)],
                             env=env, capture_output=True, check=True, timeout=120)
        out.append(run.stdout)
    assert out[0] == out[1]
    assert serialize.load_json_file(path)["kind"] == kind
