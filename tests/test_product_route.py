"""The Laurent and Potapov products pinned to their earlier forms.

`potapov_product` multiplies the factors out in one coefficient array and
`laurent.multiply` forms all block products with one einsum;
`product_oracles` keeps the per-factor and per-block loops they replace.
Both routes sum in the same order, so Theta, and with it every basis id,
must agree to the byte.
"""

import numpy as np
import pytest

from mttokit.errors import NotProjectionError, NotUnitaryError, ParseError
from mttokit.fixtures import FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, VecLaurent, multiply
from mttokit.model_space import ModelSpaceBasis, potapov_product
from mttokit.randgen import haar_unitary, random_projection

from product_oracles import multiply_loop, potapov_product_loop

FIXTURE_IDS = {
    "FIX1": "v5-91e997794146500c",
    "FIX2": "v5-5617624a15eff4cf",
    "FIX3": "v5-8745784d20305f31",
    "FIX4": "v5-5d4c20469799903c",
    "FIX5": "v5-56d18d237fc06806",
}


def _potapov_inputs():
    """(label, factors, left unitary): the fixtures, the edge factors 0 and
    I, U = -I, and 400 seeded draws with d in 1..7 and 1..8 factors."""
    for name in FIXTURE_NAMES:
        u, mats, _ = fixture(name)._potapov
        yield name, mats, u
    yield "P = 0", [np.zeros((3, 3)), np.diag([1.0, 0.0, 1.0])], None
    yield "P = I", [np.eye(2), np.diag([0.0, 1.0]), np.eye(2)], None
    yield "U = -I", [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.full((2, 2), 0.5)], -np.eye(2)
    rng = np.random.default_rng(1955)
    for k in range(400):
        d, m = int(rng.integers(1, 8)), int(rng.integers(1, 9))
        factors = [random_projection(d, int(rng.integers(0, d + 1)), rng) for _ in range(m)]
        yield f"draw {k}", factors, haar_unitary(d, rng)


def test_potapov_product_matches_the_per_factor_loop():
    inputs = list(_potapov_inputs())
    assert len(inputs) == 408
    for label, factors, u in inputs:
        theta, (_, mats, rank_sum) = potapov_product(factors, u)
        want, (_, _, want_rank_sum) = potapov_product_loop(factors, u)
        assert theta.coeffs.tobytes() == want.coeffs.tobytes(), label
        assert (theta.lo, rank_sum) == (want.lo, want_rank_sum), label
        assert all(np.array_equal(a, b) for a, b in zip(mats, factors)), label


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_basis_ids_are_pinned(name):
    assert ModelSpaceBasis(fixture(name)).basis_id == FIXTURE_IDS[name]


def test_fixture_lookup_ignores_case_and_names_the_known_fixtures():
    assert fixture("fix5").theta.coeffs.tobytes() == fixture("FIX5").theta.coeffs.tobytes()
    with pytest.raises(KeyError, match="unknown fixture 'FIX6'; known: FIX1, FIX2, FIX3, FIX4, FIX5"):
        fixture("FIX6")


def _multiply_pairs(count=600):
    rng = np.random.default_rng(2024)
    for k in range(count):
        d, nf, ng = (int(x) for x in rng.integers(1, 7, size=3))
        f = rng.standard_normal((nf, d, d)) + 1j * rng.standard_normal((nf, d, d))
        f[rng.random(f.shape) < 0.2] = complex(-0.0, -0.0)
        shape = (ng, d, d) if k % 2 else (ng, d)
        g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        g[rng.random(shape) < 0.2] = -0.0
        flavour = MatLaurent if k % 2 else VecLaurent
        lo_f, lo_g = (int(x) for x in rng.integers(-3, 4, size=2))
        yield MatLaurent(lo_f, f), flavour(lo_g, g)


def test_multiply_matches_the_per_block_loop():
    for f, g in _multiply_pairs():
        got, want = multiply(f, g), multiply_loop(f, g)
        assert type(got) is type(want) and got.lo == want.lo
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


@pytest.mark.parametrize(
    "factors, u, error",
    [
        # Hermitian, but p @ p overflows to nan: no residual comparison may pass it
        ([np.array([[1e200, 1e200], [1e200, -1e200]])], None, NotProjectionError),
        ([np.array([[np.nan, 0.0], [0.0, 1.0]])], None, NotProjectionError),
        ([np.diag([1.0, 0.0])], np.full((2, 2), 1e308), NotUnitaryError),
        ([np.diag([1.0, 0.0])], np.diag([np.nan, 1.0]), NotUnitaryError),
        ([np.eye(2), np.eye(3)], None, NotProjectionError),
    ],
)
def test_bad_factors_are_refused_without_warnings(factors, u, error, recwarn):
    with pytest.raises(error):
        potapov_product(factors, u)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_more_factors_than_the_window_holds_are_refused_before_any_product(monkeypatch):
    """The bound counts factors: 1025 of them at d = 2 are refused although
    their top coefficient P_1 ... P_r is zero and Theta would trim to
    diag(z^513, z^512); 1024 of them, at the limit, multiply out."""
    factors = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])] * 512 + [np.diag([1.0, 0.0])]
    products = []
    with monkeypatch.context() as patch:
        patch.setattr(np, "einsum", lambda *args, **kwargs: products.append(args))
        with pytest.raises(ParseError, match=r"^coefficient window m\*d = 1025 \* 2 exceeds the limit of 2048 "):
            potapov_product(factors)
    assert products == []
    theta, _ = potapov_product(factors[:-1])
    assert theta.hi == 512 and np.array_equal(theta.coeffs[-1], np.eye(2))
