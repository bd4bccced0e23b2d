import json
import math

import numpy as np
import pytest

from mttokit import serialize
from mttokit.errors import ParseError
from mttokit.fixtures import fixture
from mttokit.laurent import MatLaurent
from mttokit.model_space import inner_from_json

AWKWARD = [0.1, 1.0 / 3.0, 1e-300, 1e300, 123456789.123456789, -2.5e-17, math.pi]


def test_complex_round_trip_is_bit_exact():
    for re in AWKWARD:
        for im in (0.0, -re, re / 7.0):
            z = complex(re, im)
            wire = json.loads(json.dumps(serialize.complex_to_json(z)))
            back = serialize.json_to_complex(wire)
            assert back.real == z.real and back.imag == z.imag


def test_negative_zero_survives():
    wire = json.loads(json.dumps(serialize.complex_to_json(complex(-0.0, 0.0))))
    back = serialize.json_to_complex(wire)
    assert np.signbit(back.real) and not np.signbit(back.imag)


def test_json_to_complex_rejects_garbage():
    for bad in ([1.0], [1.0, 2.0, 3.0], "x", {"re": 1}):
        with pytest.raises(ParseError):
            serialize.json_to_complex(bad)


def test_canonical_json_is_sorted_and_compact():
    text = serialize.canonical_json({"b": 1, "a": [1.5, {"z": 0, "k": 2}]})
    assert text == '{"a":[1.5,{"k":2,"z":0}],"b":1}'
    with pytest.raises(ValueError):
        serialize.canonical_json({"x": float("nan")})


def test_stable_hash_properties():
    h = serialize.stable_hash({"a": 1})
    assert len(h) == 16 and int(h, 16) >= 0
    assert h == serialize.stable_hash({"a": 1})
    assert h != serialize.stable_hash({"a": 2})


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


def test_inner_function_round_trip_both_kinds():
    inner = fixture("FIX5")
    back = inner_from_json(inner.to_json())
    assert (back.theta - inner.theta).norm() <= 1e-14
    coeffs_doc = {"kind": "coeffs", "laurent": serialize.laurent_to_json(inner.theta)}
    again = inner_from_json(coeffs_doc)
    assert (again.theta - inner.theta).norm() == 0.0
    with pytest.raises(ParseError):
        inner_from_json({"kind": "mystery"})
    with pytest.raises(ParseError):
        inner_from_json(["not", "an", "object"])


def test_file_round_trip(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"z": serialize.complex_to_json(0.1 + 0.2j), "n": 3}
    serialize.dump_json_file(path, doc)
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
    doc = fixture("FIX5").to_json()
    doc["schema_version"] = version
    sym = dict(serialize.laurent_to_json(MatLaurent.identity(2)), schema_version=version)
    with pytest.raises(ParseError, match="schema_version"):
        inner_from_json(doc)
    with pytest.raises(ParseError, match="schema_version"):
        serialize.json_to_mat_laurent(sym)
