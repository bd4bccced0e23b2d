"""JSON codecs for the on-disk interchange formats.

Complex arrays travel as nested row-major lists with [re, im] pairs at
the leaves, and floats are emitted with Python's shortest round-trip
repr, so serializing and re-parsing a float64 payload is bit-exact and
two identical runs produce identical bytes.  Both directions convert a
whole array at once.  Every top-level document carries a schema_version
field; readers refuse a version they do not know and read a document
without one as current.
A model-space basis is named by `basis_id`, a hash of the payload it is
built from.
"""

import hashlib
import json

import numpy as np

from .errors import ParseError
from .laurent import MatLaurent
from .numerics import require_finite

SCHEMA_VERSION = 1
BASIS_ID_PREFIX = "v6-"  # changes whenever the rule that builds a basis from its payload does


def check_schema_version(obj) -> None:
    """Refuse a document that declares a schema_version other than
    SCHEMA_VERSION (the integer; "1" or true is not it)."""
    if isinstance(obj, dict) and "schema_version" in obj:
        version = obj["schema_version"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema_version {version!r}, expected {SCHEMA_VERSION}")


def canonical_json(obj) -> str:
    """Deterministic serialization: sorted keys, fixed separators, no NaN."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def basis_id(shape, *arrays) -> str:
    """Identity of a model-space basis: BASIS_ID_PREFIX and the first 16 hex
    digits of the sha256 of the little-endian bytes of the integers `shape`
    as int64, then of each array as complex128 in row-major order.  The
    basis is a function of its payload under a fixed rule, so the id hashes
    that payload (`ModelSpaceBasis.basis_id` names the arrays) and does not
    move when that rule's roundoff does."""
    h = hashlib.sha256(np.array(shape, dtype="<i8").tobytes())
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<c16").tobytes())
    return BASIS_ID_PREFIX + h.hexdigest()[:16]


def array_to_json(a):
    """Nested row-major lists with [re, im] leaves; works for any ndim."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], -1).tolist()


def json_to_array(obj, ndim: int) -> np.ndarray:
    """Inverse of array_to_json for a known nesting depth.  The payload
    must be ndim levels of non-empty, equally long lists over [re, im]
    pairs of finite int or float entries (not bool)."""
    try:
        raw = np.array(obj, dtype=object)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"ragged array in payload: {exc}") from exc
    if raw.ndim != ndim + 1 or raw.shape[-1] != 2 or 0 in raw.shape:
        raise ParseError(f"expected {ndim} levels of non-empty, equally long lists over [re, im] pairs")
    leaves = raw.ravel().tolist()
    if not set(map(type, leaves)) <= {int, float}:
        raise ParseError("non-numeric entries in array payload")
    try:  # an integer too large for a float overflows
        values = require_finite(np.array(leaves, dtype=np.float64), "non-finite entries")
    except (OverflowError, ValueError) as exc:
        raise ParseError("non-finite entries in array payload") from exc
    return values.view(np.complex128).reshape(raw.shape[:-1])


def matrix_to_json(a):
    return array_to_json(np.atleast_2d(a))


def json_to_matrix(obj) -> np.ndarray:
    return json_to_array(obj, 2)


def laurent_to_json(f) -> dict:
    return {"dim": f.dim, "lo": f.lo, "coeffs": array_to_json(f.coeffs)}


def _json_int(obj, key: str) -> int:
    """An integer field; booleans and floats (0.7, 1e400) are refused."""
    value = obj[key]
    if type(value) is not int:
        raise ParseError(f"field {key!r} must be an integer, got {value!r}")
    return value


def json_to_mat_laurent(obj) -> MatLaurent:
    check_schema_version(obj)
    try:
        coeffs = json_to_array(obj["coeffs"], 3)
        f = MatLaurent(_json_int(obj, "lo"), coeffs)
        dim = _json_int(obj, "dim")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix Laurent payload: {exc}") from exc
    if f.dim != dim:
        raise ParseError(f"declared dim {dim} does not match coefficients")
    return f


def _reject_constant(name):
    raise ParseError(f"non-finite number {name} in JSON input")


def load_json_file(path) -> dict:
    """The JSON object in a file.  Bytes that are not UTF-8 and text the decoder refuses (bad
    syntax, an integer past Python's digit limit, nesting past the recursion limit) are a ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"top-level JSON value in {path} must be an object")
    return obj

