import json
import math

import numpy as np
import pytest

from mttokit import serialize
from mttokit.errors import ParseError
from mttokit.fixtures import FIXTURE_FACTORS, FIXTURE_NAMES, fixture
from mttokit.laurent import MatLaurent
from mttokit.model_space import InnerFunction, ModelSpaceBasis, make_inner_potapov, theta_from_json
from mttokit.randgen import random_inner

from basis_oracles import array_to_json_recursive
from json_files import dump_json_file, inner_to_json

AWKWARD = [0.1, 1.0 / 3.0, 1e-300, 1e300, 123456789.123456789, -2.5e-17, math.pi]


def test_complex_round_trip_is_bit_exact():
    for re in AWKWARD:
        for im in (0.0, -re, re / 7.0):
            z = complex(re, im)
            wire = json.loads(json.dumps(serialize.array_to_json(z)))
            back = serialize.json_to_array(wire, 0)
            assert back.shape == () and back.real == z.real and back.imag == z.imag


def test_negative_zero_survives():
    wire = json.loads(json.dumps(serialize.array_to_json(complex(-0.0, 0.0))))
    back = serialize.json_to_array(wire, 0)
    assert np.signbit(back.real) and not np.signbit(back.imag)


def test_json_to_array_rejects_a_bad_scalar_pair():
    for bad in ([1.0], [1.0, 2.0, 3.0], "x", {"re": 1}):
        with pytest.raises(ParseError):
            serialize.json_to_array(bad, 0)


def test_canonical_json_is_sorted_and_compact():
    text = serialize.canonical_json({"b": 1, "a": [1.5, {"z": 0, "k": 2}]})
    assert text == '{"a":[1.5,{"k":2,"z":0}],"b":1}'
    with pytest.raises(ValueError):
        serialize.canonical_json({"x": float("nan")})


def test_array_round_trip():
    rng = np.random.default_rng(3)
    for shape in ((2, 3), (4, 2, 2)):
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wire = json.loads(json.dumps(serialize.array_to_json(a)))
        back = serialize.json_to_array(wire, a.ndim)
        assert np.array_equal(back, a)


def test_json_to_array_rejects_ragged_and_wrong_depth():
    with pytest.raises(ParseError):
        serialize.json_to_array([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], 2)
    with pytest.raises(ParseError):
        serialize.json_to_array([[1.0, 0.0], [2.0, 0.0]], 2)  # depth 1 payload


def test_laurent_round_trip_with_negative_lower_index():
    rng = np.random.default_rng(4)
    c = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    f = MatLaurent(-2, c)
    wire = json.loads(json.dumps(serialize.laurent_to_json(f)))
    back = serialize.json_to_mat_laurent(wire)
    assert back.lo == f.lo and np.array_equal(back.coeffs, f.coeffs)


def test_laurent_dim_mismatch_rejected():
    doc = serialize.laurent_to_json(MatLaurent.identity(2))
    doc["dim"] = 3
    with pytest.raises(ParseError):
        serialize.json_to_mat_laurent(doc)


def test_declared_dim_of_a_zero_symbol_is_checked():
    doc = serialize.laurent_to_json(MatLaurent.zero(2))
    doc["dim"] = 3
    with pytest.raises(ParseError, match="declared dim 3 does not match coefficients"):
        serialize.json_to_mat_laurent(doc)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_zero_symbol_round_trips(d):
    wire = json.loads(json.dumps(serialize.laurent_to_json(MatLaurent.zero(d))))
    back = serialize.json_to_mat_laurent(wire)
    assert (back.dim, back.lo) == (d, 0) and not back.coeffs.any() and back.coeffs.shape == (1, d, d)


def test_inner_function_round_trip_both_kinds():
    inner = fixture("FIX5")
    back = InnerFunction(*theta_from_json(inner_to_json(inner, FIXTURE_FACTORS["FIX5"])))
    assert (back.theta - inner.theta).norm() <= 1e-14
    coeffs_doc = {"kind": "coeffs", "laurent": serialize.laurent_to_json(inner.theta)}
    again = InnerFunction(*theta_from_json(coeffs_doc))
    assert (again.theta - inner.theta).norm() == 0.0
    with pytest.raises(ParseError):
        InnerFunction(*theta_from_json({"kind": "mystery"}))
    with pytest.raises(ParseError):
        InnerFunction(*theta_from_json(["not", "an", "object"]))


def test_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"z": serialize.array_to_json(0.1 + 0.2j), "n": 3}
    dump_json_file(path, doc)
    text = path.read_text()
    assert text.endswith("\n") and '"n": 3' in text
    assert serialize.load_json_file(path) == json.loads(text)


def test_load_json_file_errors(tmp_path):
    with pytest.raises(ParseError):
        serialize.load_json_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ParseError):
        serialize.load_json_file(bad)
    top = tmp_path / "top.json"
    top.write_text("[1, 2]")
    with pytest.raises(ParseError):
        serialize.load_json_file(top)


@pytest.mark.parametrize("version", [2, "1", True, 1.0, None])
def test_readers_refuse_an_unknown_schema_version(version):
    doc = inner_to_json(fixture("FIX5"), FIXTURE_FACTORS["FIX5"])
    doc["schema_version"] = version
    sym = dict(serialize.laurent_to_json(MatLaurent.identity(2)), schema_version=version)
    with pytest.raises(ParseError, match="schema_version"):
        InnerFunction(*theta_from_json(doc))
    with pytest.raises(ParseError, match="schema_version"):
        serialize.json_to_mat_laurent(sym)


# Floats whose repr is easy to get wrong: signed zeros, a subnormal, the
# extremes, and integer-valued floats (which must stay floats: "3.0").
SPECIAL = [0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e308, -1e308, 3.0, -2.0, 1e16, 2.0**53 + 2.0]


def _special_arrays():
    rng = np.random.default_rng(7)
    values = np.array(SPECIAL)
    for shape in ((), (), (5,), (3, 4), (2, 3, 2)):
        a = np.empty(shape, dtype=np.complex128)
        a.real, a.imag = rng.choice(values, size=shape), rng.choice(values, size=shape)
        yield a


@pytest.mark.parametrize("a", list(_special_arrays()), ids=lambda a: f"ndim{a.ndim}")
def test_array_to_json_bytes_equal_the_recursive_encoder(a):
    got = serialize.array_to_json(a)
    want = array_to_json_recursive(a)
    assert json.dumps(got) == json.dumps(want)
    assert serialize.canonical_json(got) == serialize.canonical_json(want)


@pytest.mark.parametrize("a", list(_special_arrays()), ids=lambda a: f"ndim{a.ndim}")
def test_json_to_array_round_trips_bit_exactly(a):
    back = serialize.json_to_array(json.loads(json.dumps(serialize.array_to_json(a))), a.ndim)
    assert back.dtype == np.complex128 and back.shape == a.shape
    assert back.tobytes() == np.asarray(a, dtype=np.complex128).tobytes()


@pytest.mark.parametrize(
    "obj, ndim",
    [
        ([True, 0.0], 0),
        ([[1.0, 0.0], [0.0, False]], 1),
        (["1.0", 0.0], 0),
        ([[1.0, 0.0], [None, 0.0]], 1),
        ([10**400, 0.0], 0),
        ([[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]], 2),  # ragged rows
        ([[1.0, 0.0], [2.0]], 1),  # ragged pairs
        ([[1.0, 0.0], [2.0, 0.0]], 2),  # too shallow
        ([[[1.0, 0.0]]], 1),  # too deep
        ([], 1),  # empty level
        ([[]], 2),
        ([[[1.0, 0.0]], []], 2),
    ],
)
def test_json_to_array_refusals(obj, ndim):
    with pytest.raises(ParseError):
        serialize.json_to_array(obj, ndim)


def _theta(seed=5):
    rng = np.random.default_rng(seed)
    return MatLaurent(0, rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))


def _coeffs_id(theta, n):
    return serialize.basis_id((theta.dim, theta.lo, theta.hi, n), theta.coeffs)


def test_basis_id_is_versioned_and_deterministic():
    theta = _theta()
    bid = _coeffs_id(theta, 3)
    assert bid.startswith("v6-") and len(bid) == 19 and int(bid[3:], 16) >= 0
    assert bid == _coeffs_id(MatLaurent(0, theta.coeffs.copy()), 3)
    for name in FIXTURE_NAMES:
        assert ModelSpaceBasis(fixture(name)).basis_id == ModelSpaceBasis(fixture(name)).basis_id


def test_basis_id_sees_one_ulp_of_theta_and_q_is_rebuilt_bit_for_bit():
    theta = _theta()
    bid = _coeffs_id(theta, 3)
    c = theta.coeffs.copy()
    c[1, 0, 1] = complex(np.nextafter(c[1, 0, 1].real, np.inf), c[1, 0, 1].imag)
    assert _coeffs_id(MatLaurent(0, c), 3) != bid
    # the id no longer hashes Q, so Q itself must come out the same bytes from the same Theta
    for name in FIXTURE_NAMES:
        assert ModelSpaceBasis(fixture(name)).q.tobytes() == ModelSpaceBasis(fixture(name)).q.tobytes()
    inner = random_inner(3, 5, np.random.default_rng(8))
    again = InnerFunction(MatLaurent(inner.theta.lo, inner.theta.coeffs.copy()))
    assert ModelSpaceBasis(again).q.tobytes() == ModelSpaceBasis(InnerFunction(inner.theta)).q.tobytes()
    u, ps, ranks = inner.factors
    same = InnerFunction(inner.theta, (u.copy(), ps.copy(), ranks.copy()))
    assert ModelSpaceBasis(inner).q.tobytes() == ModelSpaceBasis(same).q.tobytes()


def test_basis_id_sees_the_shape_behind_equal_bytes():
    theta = _theta()
    bid = _coeffs_id(theta, 3)
    shifted = MatLaurent(1, theta.coeffs)  # same coefficient bytes, lo 1
    scalar = MatLaurent(0, theta.coeffs.reshape(8, 1, 1))  # same bytes, d 1
    assert shifted.coeffs.tobytes() == scalar.coeffs.tobytes() == theta.coeffs.tobytes()
    ids = {bid, _coeffs_id(shifted, 3), _coeffs_id(scalar, 3)}
    assert len(ids) == 3
    assert _coeffs_id(theta, 2) != bid  # the same Theta with another n


def test_a_potapov_basis_id_hashes_the_factors_not_theta():
    # diag(z, z^2) = diag(1, z) (z I) = (z I) diag(1, z): one Theta, two factorizations, two bases
    first, second = ([np.diag([0.0, 1.0]), np.eye(2)], [np.eye(2), np.diag([0.0, 1.0])])
    a, b = (ModelSpaceBasis(make_inner_potapov(f)) for f in (first, second))
    assert a.inner.theta.coeffs.tobytes() == b.inner.theta.coeffs.tobytes()
    assert a.basis_id != b.basis_id and a.q.tobytes() != b.q.tobytes()
    u, ps, _ = a.inner.factors
    assert a.basis_id == serialize.basis_id((2, 2, 3), u, ps)
    coeffs = ModelSpaceBasis(InnerFunction(a.inner.theta))
    assert coeffs.basis_id == _coeffs_id(a.inner.theta, 3) not in (a.basis_id, b.basis_id)
