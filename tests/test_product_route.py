"""The Laurent and Potapov products pinned to their earlier forms.

`potapov_product` multiplies the factors out in one coefficient array, by
one matrix product H P per factor, and `product_oracles` keeps the
per-factor einsum loop it replaces: Theta agrees with it within
`product_oracles.potapov_bound`, and to the byte where every product and
partial sum is exact (the fixtures and the edge factors).  A Potapov
basis id hashes the factors, a coefficient basis id Theta.
`laurent.convolve` takes a block convolution as one product with a
gathered block-Toeplitz matrix, in BLAS's summation order: it is pinned to
the einsum route it replaced within the rounding bound of two orders of the
same sums (`product_oracles.rounding_bound`), and bit for bit where every
product and partial sum is exact.  It forms only the blocks asked for, sets
no floating-point warning, holds one Toeplitz matrix at most, and keeps its
lag indices in a bounded cache of read-only arrays.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from mttokit.errors import NotProjectionError, NotUnitaryError, ParseError
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent, VecLaurent, _lags, convolve, multiply
from mttokit import model_space
from mttokit.model_space import InnerFunction, ModelSpaceBasis, potapov_product
from mttokit.randgen import haar_unitary, random_projection

from product_oracles import einsum_convolve, multiply_loop, potapov_bound, potapov_product_loop, rounding_bound

FIXTURE_IDS = {  # (Potapov payload, coefficient payload); the second hashes Theta, as v5- did
    "FIX1": ("v6-fe77879d0c25df6d", "v6-91e997794146500c"),
    "FIX2": ("v6-1e662092f3af1469", "v6-5617624a15eff4cf"),
    "FIX3": ("v6-03d76210d0719d30", "v6-8745784d20305f31"),
    "FIX4": ("v6-4f974d1edd0fb262", "v6-5d4c20469799903c"),
    "FIX5": ("v6-4079350d103bf2ca", "v6-56d18d237fc06806"),
}


def _potapov_inputs():
    """(label, factors, left unitary): the fixtures, the edge factors 0 and
    I, U = -I, and 400 seeded draws with d in 1..7 and 1..8 factors."""
    for name in FIXTURE_NAMES:
        yield name, FIXTURE_FACTORS[name], None
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
    for k, (label, factors, u) in enumerate(inputs):
        theta, (_, ps, ranks) = potapov_product(factors, u)
        want, want_rank_sum = potapov_product_loop(factors, u)
        assert (theta.lo, int(ranks.sum())) == (want.lo, want_rank_sum), label
        assert ps.shape == (len(factors),) + np.shape(factors[0]) and not ps.flags.writeable, label
        if k < 8:  # exact data
            assert theta.coeffs.tobytes() == want.coeffs.tobytes(), label
        top = len(factors)  # the largest share of the bound at this grid is 0.134
        assert (np.abs(theta.window(0, top) - want.window(0, top)) <= potapov_bound(factors, u)).all(), label


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_basis_ids_are_pinned(name):
    assert ModelSpaceBasis(fixture(name)).basis_id == FIXTURE_IDS[name][0]
    assert ModelSpaceBasis(InnerFunction(fixture(name).theta)).basis_id == FIXTURE_IDS[name][1]


def test_fixture_lookup_ignores_case_and_names_the_known_fixtures():
    assert fixture("fix5").theta.coeffs.tobytes() == fixture("FIX5").theta.coeffs.tobytes()
    with pytest.raises(KeyError, match="unknown fixture 'FIX6'; known: FIX1, FIX2, FIX3, FIX4, FIX5"):
        fixture("FIX6")


def _gaussian_integers(shape, rng):
    """Entries a + bi with integers |a|, |b| <= 8 times one power of two:
    every product and every partial sum of a convolution of them is exact."""
    return (rng.integers(-8, 9, shape) + 1j * rng.integers(-8, 9, shape)) * 2.0 ** int(rng.integers(-6, 7))


def _multiply_pairs(count=600, exact=False):
    rng = np.random.default_rng(2024 + exact)
    for k in range(count):
        d, nf, ng = (int(x) for x in rng.integers(1, 7, size=3))
        shape = (ng, d, d) if k % 2 else (ng, d)
        if exact:
            f, g = _gaussian_integers((nf, d, d), rng), _gaussian_integers(shape, rng)
        else:
            f = rng.standard_normal((nf, d, d)) + 1j * rng.standard_normal((nf, d, d))
            g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f[rng.random(f.shape) < 0.2] = complex(-0.0, -0.0)
        g[rng.random(shape) < 0.2] = -0.0
        flavour = MatLaurent if k % 2 else VecLaurent
        lo_f, lo_g = (int(x) for x in rng.integers(-3, 4, size=2))
        yield MatLaurent(lo_f, f), flavour(lo_g, g)


def test_multiply_matches_the_per_block_loop():
    for f, g in _multiply_pairs():
        got, want = multiply(f, g), multiply_loop(f, g)
        assert type(got) is type(want) and (got.lo, got.hi) == (want.lo, want.hi)
        bound = rounding_bound(f.coeffs, g.coeffs)[got.lo - f.lo - g.lo :][: got.coeffs.shape[0]]
        assert (np.abs(got.coeffs - want.coeffs) <= bound).all()
    for f, g in _multiply_pairs(exact=True):
        got, want = multiply(f, g), multiply_loop(f, g)
        assert type(got) is type(want) and got.lo == want.lo
        assert got.coeffs.tobytes() == want.coeffs.tobytes()


def _convolution_operands(count, rng, entries):
    """`count` seeded (f, g, first): p in 1..12, q in 1..40, d in 1..4, g of
    shape (q, d) or (q, d, c) with c in 1..8, a zero first block of f or a
    zero last block of g on some, and `first` past 0 on every third."""
    for k in range(count):
        p, q, d = int(rng.integers(1, 13)), int(rng.integers(1, 41)), int(rng.integers(1, 5))
        f = entries((p, d, d), rng)
        g = entries((q, d) if k % 2 else (q, d, int(rng.integers(1, 9))), rng)
        if k % 5 == 0:
            f[0] = 0.0
        if k % 7 == 0:
            g[-1] = -0.0
        yield f, g, int(rng.integers(0, p + q - 1)) if k % 3 == 0 else 0


def _gaussian(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_convolve_is_the_einsum_route_within_the_rounding_bound():
    orientations = {True: 0, False: 0}
    for f, g, first in _convolution_operands(3000, np.random.default_rng(45), _gaussian):
        got, want = convolve(f, g, first), einsum_convolve(f, g)[first:]
        assert got.shape == want.shape and got.dtype == want.dtype
        assert (np.abs(got - want) <= rounding_bound(f, g)[first:]).all(), (f.shape, g.shape, first)
        orientations[g.shape[0] * f.shape[1] <= f.shape[0] * (g.shape[2] if g.ndim == 3 else 1)] += 1
    assert min(orientations.values()) >= 300  # both Toeplitz matrices are exercised


def test_convolve_is_the_einsum_route_bit_for_bit_where_the_arithmetic_is_exact():
    for f, g, first in _convolution_operands(3000, np.random.default_rng(46), _gaussian_integers):
        assert convolve(f, g, first).tobytes() == einsum_convolve(f, g)[first:].tobytes()


@pytest.mark.parametrize("f_scale, g_scale", [(1e200, 1e200), (1e200, 1.0), (1e-200, 1e-200), (1e200, 1e-200)])
def test_convolve_sets_no_warning_and_keeps_non_finite_results(f_scale, g_scale):
    rng = np.random.default_rng(47)
    for f, g, first in _convolution_operands(200, rng, _gaussian):
        f, g = f * f_scale, g * g_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = convolve(f, g, first)
        with np.errstate(all="ignore"):
            want = einsum_convolve(f, g)[first:]
        assert np.isfinite(got).all() == np.isfinite(want).all()
        assert not np.isfinite(got[~np.isfinite(want)]).any()


def test_convolve_holds_one_toeplitz_matrix_at_the_conjugation_shape():
    """Theta's 61 blocks at d = 8 by the 60 window blocks of 240 columns,
    the conjugation matrix of an n = 240 space: forming every F_i G_k at
    once peaked at 110.7 MiB; f's Toeplitz matrix (960 x 480) is 7 MiB."""
    rng = np.random.default_rng(48)
    f, g = _gaussian((61, 8, 8), rng), _gaussian((60, 8, 240), rng)
    for first in (0, 60):
        tracemalloc.start()
        try:
            convolve(f, g, first)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20, peak


def test_the_lag_index_is_read_only_bounded_and_the_block_offsets():
    lag = _lags(3, 4)
    assert not lag.flags.writeable and _lags(3, 4) is lag
    assert 0 < _lags.cache_info().maxsize <= 64
    for p, q in ((1, 1), (3, 4), (5, 2)):
        l, k = np.indices((p + q - 1, q))
        assert np.array_equal(_lags(p, q), np.where((l - k >= 0) & (l - k < p), l - k, p))


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
        patch.setattr(np, "stack", lambda *args, **kwargs: products.append(args))
        patch.setattr(model_space, "_advance", lambda *args: products.append(args))
        with pytest.raises(ParseError, match=r"^coefficient window m\*d = 1025 \* 2 exceeds the limit of 2048 "):
            potapov_product(factors)
    assert products == []
    theta, _ = potapov_product(factors[:-1])
    assert theta.hi == 512 and np.array_equal(theta.coeffs[-1], np.eye(2))
