"""A Laurent polynomial's value at a point is one product over its blocks.

`laurent.evaluate(f, z)` multiplies the powers z^lo, ..., z^hi into the
coefficient blocks at once, for the matrix and the vector flavour.  The
Horner loops it replaced are kept as the oracle
(`product_oracles.horner_evaluate`); the two must agree within
`product_oracles.evaluation_bound`, entry by entry, on analytic, coanalytic
and mixed supports, inside, on and outside the unit circle.  The largest
share of the bound seen here is below 0.1.  At z = 0 the value is block 0
bit for bit, and a negative support is refused there.  The earlier loop
read a support that ends below -1 one power of 1/z short (z^-2 at z = 2
gave 0.5); the oracle has that power back, and powers of 2 pin it exactly.
"""

import numpy as np
import pytest

from mttokit.laurent import MatLaurent, VecLaurent, evaluate

from product_oracles import evaluation_bound, horner_evaluate

SUPPORTS = [(0, 4), (2, 5), (-4, 0), (-5, -2), (-3, 3), (-1, 6), (0, 0), (-1, -1)]
POINTS = [0.3 + 0.4j, -0.05j, 0.9, np.exp(0.7j), -1.0, 1j, 1.7 - 0.4j, 2.5]


def _laurent(cls, d, lo, hi, rng):
    shape = (hi - lo + 1, d) + ((d,) if cls is MatLaurent else ())
    return cls(lo, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def _assert_within_bound(f, z):
    got, want = evaluate(f, z), horner_evaluate(f, z)
    assert got.shape == want.shape == f.coeffs.shape[1:]
    assert np.all(np.abs(got - want) <= evaluation_bound(f, z))


@pytest.mark.parametrize("cls", [MatLaurent, VecLaurent])
@pytest.mark.parametrize("lo,hi", SUPPORTS)
@pytest.mark.parametrize("z", POINTS)
def test_evaluate_stays_within_rounding_of_the_horner_loop(cls, lo, hi, z):
    f = _laurent(cls, 3, lo, hi, np.random.default_rng(hi - lo + 10))
    _assert_within_bound(f, z)


@pytest.mark.parametrize("cls", [MatLaurent, VecLaurent])
def test_evaluate_at_the_sizes_of_a_large_theta(cls):
    rng = np.random.default_rng(8)
    f = _laurent(cls, 8, 0, 30, rng)
    for z in (0.6 * np.exp(1.1j), np.exp(-0.3j), 1.05j, np.exp(-1 / 30)):
        _assert_within_bound(f, z)


@pytest.mark.parametrize("cls", [MatLaurent, VecLaurent])
@pytest.mark.parametrize("lo,hi", [(lo, hi) for lo, hi in SUPPORTS if lo >= 0])
def test_the_value_at_zero_is_block_zero_bit_for_bit(cls, lo, hi):
    f = _laurent(cls, 3, lo, hi, np.random.default_rng(lo + 3 * hi))
    got = evaluate(f, 0.0)
    assert np.array_equal(got, f.coeff(0)) and np.array_equal(got, horner_evaluate(f, 0.0))
    assert not np.shares_memory(got, f.coeffs)


@pytest.mark.parametrize("cls", [MatLaurent, VecLaurent])
@pytest.mark.parametrize("lo,hi", [(lo, hi) for lo, hi in SUPPORTS if lo < 0])
def test_a_negative_support_is_refused_at_zero(cls, lo, hi):
    f = _laurent(cls, 2, lo, hi, np.random.default_rng(0))
    with pytest.raises(ZeroDivisionError):
        evaluate(f, 0j)


def test_a_support_below_minus_one_takes_every_power_of_one_over_z():
    assert evaluate(VecLaurent(-2, [[1.0]]), 2.0) == 0.25
    assert evaluate(VecLaurent(-3, [[1.0], [1.0]]), 2.0) == 0.375
    assert np.array_equal(evaluate(MatLaurent(-3, [np.eye(2), np.eye(2)]), -2.0), -0.125 * np.eye(2) + 0.25 * np.eye(2))
