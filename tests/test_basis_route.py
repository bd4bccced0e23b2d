"""The coefficient payload's basis pinned to the ambient-space Gram-Schmidt.

`InnerFunction` reads n off trace P, P = I - L L* the window projector,
in closed form from Theta's blocks; for a coefficient payload (no Potapov
factors; the factor route is pinned in `test_factor_route.py`)
`ModelSpaceBasis` builds P by running sums along its block diagonals and
runs Gram-Schmidt on its columns a panel at a time, by block passes and one Householder QR per panel, and
sweeps a panel with skipped columns further on its triangular factor.
`basis_oracles.gram_schmidt_loop` does the same work column by column on
the projector built from an SVD of the constraint matrix, and
`fix_column_phases_loop` fixes the phases column by column; both are the
references here.  The rotated monomial spaces of `monomial_oracles` skip
many columns of P and have n = sum m_i.  The build then reads ||L* q|| per
column by one `off_space` call, as on the factor route, and re-projects,
Q = qr(P Q), only above OFF_ULPS * m*d * eps, measuring the result by a
second call: no generic basis crosses that gate, a basis turned off the
model space is brought back, and one still above it after the
re-projection is refused.  P is formed for Gram-Schmidt and, again, for
the re-projection, and nowhere else.
"""

import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mttokit import model_space  # noqa: E402
from mttokit.errors import IdentityCheckError, ParseError  # noqa: E402
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES, fixture  # noqa: E402
from mttokit.laurent import MatLaurent  # noqa: E402
from mttokit.model_operator import defect_spaces  # noqa: E402
from mttokit.model_space import (  # noqa: E402
    MAX_WINDOW,
    PANEL,
    InnerFunction,
    ModelSpaceBasis,
    make_inner_potapov,
    off_space,
    potapov_product,
    window_projector,
)
from mttokit.numerics import PHASE_TIE, fix_column_phases  # noqa: E402
from mttokit.randgen import haar_unitary, random_gamma_symmetric_triple, random_inner, random_projection  # noqa: E402

from basis_oracles import SEEDED, constraint_matrix, fix_column_phases_loop, gram_schmidt_loop, turned_off  # noqa: E402
from monomial_oracles import monomial_inner  # noqa: E402
from test_conditioning_family import nested_pairs_d3  # noqa: E402

# unequal m_i of rotated monomial spaces, n = sum m_i from 7 to 59
MONOMIAL = [(1, 4, 2), (5, 5, 1, 3), (3, 1, 7, 2, 6), (9, 2, 14, 7, 1, 12, 4, 10)]
# (d, factor ranks) of the benchmark's membership, recovery and spaces workloads
BENCHMARK_SHAPES = [(1, [1] * 8), (2, [1, 2] * 5 + [1]), (4, [2, 3] * 6), (2, [1, 2, 1, 2, 1, 2, 1, 1]),
                    (3, [3, 2] * 3), (2, [1, 2, 1, 2, 1, 2, 1]), (4, [3, 3, 3, 3]), (7, [4, 4])]


def _monomial(ms):
    return monomial_inner(haar_unitary(len(ms), np.random.default_rng(sum(ms))), ms)


def _spaces():
    for name in FIXTURE_NAMES:
        yield name, fixture(name)
    for d, m, seed in SEEDED:
        yield f"seeded {d}x{m}", random_inner(d, m, np.random.default_rng(seed))
    for ms in MONOMIAL:
        yield f"monomial {ms}", _monomial(ms)


def _assert_orthonormal_in_kernel(basis):
    q, n = basis.q, basis.n
    assert q.shape == (basis.inner.m * basis.inner.d, n)
    assert np.abs(q.conj().T @ q - np.eye(n)).max() <= 1e-12
    assert np.abs(constraint_matrix(basis.inner.theta) @ q).max() <= 1e-12


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_basis_matches_the_ambient_loop(name):
    inner = InnerFunction(fixture(name).theta)
    q, want = ModelSpaceBasis(inner).q, gram_schmidt_loop(inner)
    assert np.abs(q - want).max() <= 1e-12
    if name != "FIX5":  # exact data: the two orders of rounding agree bit for bit
        assert q.tobytes() == want.tobytes()


@pytest.mark.parametrize("d, m, seed", SEEDED)
def test_seeded_basis_matches_the_ambient_loop(d, m, seed):
    inner = InnerFunction(random_inner(d, m, np.random.default_rng(seed)).theta)
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
        q[: rows // 2, rng.integers(cols)] *= 1e-9  # the earlier rule's cut: the pivot is still the largest entry
        q[:, rng.integers(cols)] = 2.0 * rng.choice([1, -1, 1j, -1j], rows)  # exact ties: the first one pivots
        q[:, rng.integers(cols)] *= 1.0 + rng.integers(-4, 5, rows) * np.finfo(np.float64).eps  # near ties too
        q[rng.integers(rows)] = complex(-0.0, -0.0) if k % 2 else -0.0
        yield q, f"random {k}"


@pytest.mark.parametrize("q, label", list(_phase_cases()))
def test_vectorized_phase_fix_is_bit_equal_to_the_loop(q, label):
    assert fix_column_phases(q).tobytes() == fix_column_phases_loop(q).tobytes()


@pytest.mark.parametrize("sign", [1, -1, 1j, -1j])
def test_entries_of_equal_magnitude_pivot_on_the_first_whatever_their_last_bits(sign):
    # the column of P = [[1/2, -1/2], [-1/2, 1/2]]: its entries tie in exact arithmetic, and each order of
    # their rounded magnitudes must give the same phase
    half = np.sqrt(0.5)
    fixed = [fix_column_phases(np.array([[sign * a], [-sign * b]]))
             for a, b in [(half, half), (half, np.nextafter(half, 1.0)), (np.nextafter(half, 1.0), half),
                          (half, half * (1.0 + 0.5 * PHASE_TIE))]]
    for q in fixed:
        assert q[0, 0].real > 0 and q[0, 0].imag == 0 and q[1, 0].real < 0
        assert np.abs(q - fixed[0]).max() <= 2 * PHASE_TIE
    assert fix_column_phases(np.array([[sign * half], [-sign * half * (1.0 + 2 * PHASE_TIE)]]))[1, 0].real > 0


def test_a_basis_column_of_tied_entries_keeps_its_sign_when_the_factor_moves_by_one_ulp():
    # Theta = (I - P + zP)(P + z(I - P)) = z I: the basis is (1, -1) / sqrt 2, (1, 1) / sqrt 2, each column a
    # tie; with P moved by one ulp Theta keeps a top block of rounding, and the window a second, empty block
    p = np.array([[0.5, -0.5], [-0.5, 0.5]])
    bases = []
    for row in (None, 0, 1):
        moved = p.copy()
        if row is not None:
            moved[row, row] = np.nextafter(0.5, 1.0)
        bases.append(ModelSpaceBasis(make_inner_potapov([moved, np.eye(2) - p])).q)
    for q in bases:
        assert q[0, 0].real > 0 and q[0, 0].imag == 0 and q[1, 0].real < 0 and q[1, 1].real > 0
        assert np.abs(q[:2] - bases[0]).max() <= 1e-15 and np.abs(q[2:]).max(initial=0.0) <= 1e-15


@pytest.mark.parametrize("d, ranks", [(2, [1, 2, 1]), (3, [2, 3, 1, 2]), (4, [1, 3, 2])])
@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_constraint_matrix_is_factored_once(monkeypatch, d, ranks, kind):
    rng = np.random.default_rng(sum(ranks))
    theta, rank_sum = potapov_product([random_projection(d, r, rng) for r in ranks], haar_unitary(d, rng))
    md = theta.hi * theta.dim
    shapes = []
    svd = np.linalg.svd

    def counting_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    basis = ModelSpaceBasis(InnerFunction(theta, rank_sum if kind == "potapov" else None))
    assert basis.n == sum(ranks)
    assert shapes.count((md, md)) == 0  # P = I - L L* needs no factorization of the constraint map


@pytest.mark.parametrize("label, inner", list(_spaces()))
def test_window_projector_is_i_minus_l_l_star(label, inner):
    c = constraint_matrix(inner.theta)  # L*
    p = window_projector(inner.blocks)
    assert np.abs(p - (np.eye(c.shape[1]) - c.conj().T @ c)).max() <= 1e-14
    assert np.abs(p - p.conj().T).max() <= 1e-14 and np.abs(p @ p - p).max() <= 1e-13
    assert abs(np.trace(p).real - inner.n) <= 1e-12


def _closed_form_trace(theta):
    """The trace `InnerFunction` reads off the blocks, as its refusal
    reports it when no trace is within TRACE_TOL of an integer."""
    with pytest.MonkeyPatch.context() as patch, pytest.raises(IdentityCheckError, match="projector trace") as err:
        patch.setattr(model_space, "TRACE_TOL", -1.0)
        InnerFunction(theta)
    return float(re.search(r"projector trace (\S+) is not within", str(err.value)).group(1))


@pytest.mark.parametrize("label, inner", list(_spaces()))
def test_closed_form_trace_is_the_trace_of_the_window_projector(label, inner):
    trace = _closed_form_trace(inner.theta)
    md = inner.m * inner.d
    assert abs(trace - np.trace(window_projector(inner.blocks)).real) <= 1e-14 * md
    assert round(trace) == inner.n


@pytest.mark.parametrize("ms", MONOMIAL, ids=str)
def test_monomial_basis_takes_the_skip_branch_and_matches_the_loop(monkeypatch, ms):
    inner = _monomial(ms)
    assert inner.n == sum(ms) and abs(np.trace(window_projector(inner.blocks)).real - sum(ms)) <= 1e-12
    sweeps, factored = [], []
    real, real_qr = model_space._triangular_sweep, np.linalg.qr
    monkeypatch.setattr(model_space, "_triangular_sweep", lambda r, room: sweeps.append(room) or real(r, room))
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: factored.append(np.shape(a)) or real_qr(a, *args, **kw))
    basis = ModelSpaceBasis(inner)
    assert sweeps  # some panel had a skipped column
    # each window block k >= min m_i ends in a run of skipped columns, refactored once (twice if a panel splits it)
    panels = -(-inner.m * inner.d // PANEL)
    assert len(factored) <= 2 * panels + max(ms) - min(ms)
    assert np.abs(basis.q - gram_schmidt_loop(inner)).max() <= 1e-12
    _assert_orthonormal_in_kernel(basis)


@pytest.mark.parametrize("d, m, seed", SEEDED)
def test_basis_without_skips_takes_one_qr_per_panel(monkeypatch, d, m, seed):
    inner = InnerFunction(random_inner(d, m, np.random.default_rng(seed)).theta)
    factored = []
    real_qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: factored.append(np.shape(a)) or real_qr(a, *args, **kw))
    monkeypatch.setattr(model_space, "_triangular_sweep", lambda r, room: pytest.fail("no column is skipped"))
    ModelSpaceBasis(inner)
    assert len(factored) == -(-inner.n // PANEL)  # the panels that hold the first n columns, one QR each


def test_basis_has_no_negative_zeros():
    # exact data; before its signed zeros are made positive, the last basis has four -0.0 entries
    swap = np.array([[0, 1j], [1j, 0]])
    inners = [fixture(name) for name in FIXTURE_NAMES]
    inners.append(InnerFunction(*potapov_product([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], swap)))
    for inner in inners:
        q = ModelSpaceBasis(inner).q
        for part in (q.real, q.imag):
            assert not np.signbit(part[part == 0]).any(), inner


def test_near_dependent_column_in_a_later_panel_stays_orthogonal():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((120, 100)) + 1j * rng.standard_normal((120, 100))
    a[:, 90] = a[:, 3] + 2e-4 * (rng.standard_normal(120) + 1j * rng.standard_normal(120))
    q = model_space._panel_gram_schmidt(a, 100)  # column 90 keeps about 1.4e-3 of its norm 16, above GS_CUT
    assert q.shape == (120, 100)
    assert np.abs(q.conj().T @ q - np.eye(100)).max() <= 1e-13  # one block pass leaves about 1e-11
    assert np.abs(np.tril(q.conj().T @ a, -1)).max() <= 1e-13 * np.abs(a).max()


def test_the_window_cut_keeps_n_columns_and_moves_no_generic_basis(monkeypatch):
    # at most MAX_WINDOW skipped columns, each left below the cut, miss less than 1 of trace P
    assert model_space.GS_CUT == 1 / MAX_WINDOW and MAX_WINDOW * model_space.GS_CUT**2 < 1
    spaces = [inner for _, inner in _spaces()]
    spaces += [random_inner(d, m, np.random.default_rng(seed))
               for seed in range(20) for d, m in ((1, 3), (2, 2), (2, 6), (3, 4), (4, 3))]
    bases = [ModelSpaceBasis(inner).q for inner in spaces]
    monkeypatch.setattr(model_space, "GS_CUT", 1e-7)  # the cut before it was tied to the window bound
    for inner, q in zip(spaces, bases):
        assert ModelSpaceBasis(inner).q.tobytes() == q.tobytes(), inner


def test_wrong_factor_rank_sum_is_refused_by_the_projector_trace():
    rng = np.random.default_rng(3)
    theta, (u, ps, ranks) = potapov_product([random_projection(3, r, rng) for r in (1, 2, 2)], haar_unitary(3, rng))
    assert InnerFunction(theta, (u, ps, ranks)).n == ranks.sum() == 5
    with pytest.raises(IdentityCheckError, match="projector trace 5, det degree 5, factor rank sum 4"):
        InnerFunction(theta, (u, ps, ranks - [1, 0, 0]))


def test_projector_trace_off_an_integer_is_refused(monkeypatch):
    theta = random_inner(*SEEDED[2][:2], np.random.default_rng(SEEDED[2][2])).theta
    trace = _closed_form_trace(theta)
    assert 0 < abs(trace - round(trace)) <= 1e-14  # roundoff, inside the default tolerance
    assert InnerFunction(theta).n == round(trace)
    monkeypatch.setattr(model_space, "TRACE_TOL", abs(trace - round(trace)) / 30)  # m*d = 15: half the miss
    with pytest.raises(IdentityCheckError, match=f"projector trace {trace!r} is not within"):
        InnerFunction(theta)


@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_basis_column_count_below_the_trace_is_refused(kind):
    inner = fixture("FIX5") if kind == "potapov" else InnerFunction(fixture("FIX5").theta)
    inner.n += 1
    with pytest.raises(IdentityCheckError, match="basis column count 2, projector trace 3"):
        ModelSpaceBasis(inner)


@pytest.mark.parametrize("d, m", [(1, MAX_WINDOW + 1), (2, MAX_WINDOW // 2 + 1), (7, 10**6)])
def test_window_above_the_cap_is_refused_before_it_is_built(monkeypatch, d, m):
    monkeypatch.setattr(model_space, "window_projector", lambda blocks: pytest.fail("window built"))
    monkeypatch.setattr(model_space, "det_degree", lambda theta: pytest.fail("det degree taken"))
    with pytest.raises(ParseError, match=f"{MAX_WINDOW}"):
        InnerFunction(MatLaurent(m, np.eye(d)[None]))


def test_window_of_a_thousand_coordinates_is_admitted():
    inner = InnerFunction(MatLaurent(1000, np.eye(1)[None]))  # Theta = z^1000: P is the identity
    assert (inner.m * inner.d, inner.n) == (1000, 1000)
    assert np.array_equal(window_projector(inner.blocks), np.eye(1000))


def _generic_thetas():
    """(label, Theta, Potapov factors): the fixtures, the seeded spaces,
    three draws of each benchmark shape and gamma-symmetric draws."""
    for name in FIXTURE_NAMES:
        yield name, *potapov_product(FIXTURE_FACTORS[name])
    for d, m, seed in SEEDED:
        inner = random_inner(d, m, np.random.default_rng(seed))
        yield f"seeded {d}x{m}", inner.theta, inner.factors
    for k, (d, ranks) in enumerate(BENCHMARK_SHAPES):
        rng = np.random.default_rng(k)
        for draw in range(3):
            yield f"benchmark {d} {ranks} {draw}", *potapov_product(
                [random_projection(d, r, rng) for r in ranks], haar_unitary(d, rng))
    for seed in range(12):
        d, m = 1 + seed % 4, 1 + seed % 3
        inner = random_gamma_symmetric_triple(d, m, np.random.default_rng(seed))[1]
        yield f"gamma-symmetric {d}x{m} {seed}", inner.theta, inner.factors


@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_no_generic_basis_crosses_the_gate(monkeypatch, kind):
    inners = [(label, InnerFunction(theta, factors if kind == "potapov" else None))
              for label, theta, factors in _generic_thetas()]
    bases = [ModelSpaceBasis(inner).q for _, inner in inners]
    monkeypatch.setattr(model_space, "OFF_ULPS", 2**62)  # no basis is re-projected
    for (label, inner), q in zip(inners, bases):
        if kind == "potapov":
            built = model_space._factor_basis(inner)
        else:
            built = model_space._panel_gram_schmidt(window_projector(inner.blocks), inner.n)
        assert q.tobytes() == (fix_column_phases(built) + 0.0).tobytes(), label
        assert ModelSpaceBasis(inner).q.tobytes() == q.tobytes(), label


def _counted(monkeypatch, name):
    """The calls of model_space.`name` from here on, by the shape of their last argument."""
    calls, real = [], getattr(model_space, name)
    monkeypatch.setattr(model_space, name, lambda *args: calls.append(args[-1].shape) or real(*args))
    return calls


@pytest.mark.parametrize("kind", ["potapov", "coeffs"])
def test_a_build_measures_its_basis_by_one_off_space_call(monkeypatch, kind):
    measured, projectors = _counted(monkeypatch, "off_space"), _counted(monkeypatch, "window_projector")
    for label, theta, factors in _generic_thetas():
        inner = InnerFunction(theta, factors if kind == "potapov" else None)
        measured.clear()
        projectors.clear()
        ModelSpaceBasis(inner)
        assert measured == [(inner.m * inner.d, inner.n)], label
        assert len(projectors) == (kind == "coeffs"), label  # Gram-Schmidt's P alone


@pytest.mark.parametrize("name", ["FIX3", "FIX5", "seeded 3x5", "monomial (1, 4, 2)"])
def test_a_basis_turned_off_the_model_space_is_re_projected(monkeypatch, name):
    inner = InnerFunction(dict(_spaces())[name].theta)
    want = ModelSpaceBasis(inner).q
    gate = model_space.OFF_ULPS * inner.m * inner.d * np.finfo(np.float64).eps
    real = model_space._panel_gram_schmidt
    assert off_space(inner, turned_off(real(window_projector(inner.blocks), inner.n))).max() > 1e-5
    monkeypatch.setattr(model_space, "_panel_gram_schmidt", lambda p, n: turned_off(real(p, n)))
    measured, projectors = _counted(monkeypatch, "off_space"), _counted(monkeypatch, "window_projector")
    basis = ModelSpaceBasis(inner)
    assert measured == [(inner.m * inner.d, inner.n)] * 2  # the basis built, then the re-projection
    assert len(projectors) == 2  # Gram-Schmidt's P, then the re-projection's
    assert off_space(inner, basis.q).max() <= gate
    assert np.abs(basis.q.conj().T @ basis.q - np.eye(inner.n)).max() <= 1e-13
    assert np.abs(basis.q @ basis.q.conj().T - want @ want.conj().T).max() <= 1e-12  # the model space again
    defect_spaces(basis)


def test_a_basis_still_off_the_model_space_after_the_re_projection_is_refused(monkeypatch):
    inner = InnerFunction(potapov_product(nested_pairs_d3(1e-2, 8, 1))[0])
    ModelSpaceBasis(inner)  # re-projected within the gate
    monkeypatch.setattr(model_space, "OFF_ULPS", 0)
    with pytest.raises(IdentityCheckError, match=r"left the model space, max \|\|L\* q\|\| \d\.\d{3}e-\d+ after"):
        ModelSpaceBasis(inner)


@pytest.mark.parametrize("factors", [None, nested_pairs_d3(1e-2, 8, 1)], ids=["FIX3", "re-projected"])
def test_the_published_basis_is_read_only(factors):
    basis = ModelSpaceBasis(fixture("FIX3") if factors is None else InnerFunction(*potapov_product(factors)))
    with pytest.raises(ValueError, match="read-only"):
        basis.q[0, 0] = 1.0
