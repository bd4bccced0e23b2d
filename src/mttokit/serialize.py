"""JSON codecs for the on-disk interchange formats.

Complex scalars travel as [re, im] pairs and floats are emitted with
Python's shortest round-trip repr, so serializing and re-parsing a
float64 payload is bit-exact and two identical runs produce identical
bytes.  Top-level documents carry a schema_version field; readers refuse
a version they do not know and read a document without one as current.
"""

import hashlib
import json

import numpy as np

from .errors import ParseError
from .laurent import MatLaurent

SCHEMA_VERSION = 1


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


def stable_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()[:16]


def complex_to_json(z):
    z = complex(z)
    return [float(z.real), float(z.imag)]


def json_to_complex(obj) -> complex:
    if not (isinstance(obj, (list, tuple)) and len(obj) == 2):
        raise ParseError(f"expected a [re, im] pair, got {obj!r}")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj):
        raise ParseError(f"non-numeric entries in complex pair {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
    except OverflowError:  # an integer too large for a float
        z = complex("nan")
    if not np.isfinite(z):
        raise ParseError(f"non-finite entries in complex pair {obj!r}")
    return z


def array_to_json(a):
    """Nested row-major lists with [re, im] leaves; works for any ndim."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim == 0:
        return complex_to_json(a[()])
    return [array_to_json(sub) for sub in a]


def json_to_array(obj, ndim: int) -> np.ndarray:
    """Inverse of array_to_json for a known nesting depth."""
    if ndim == 0:
        return np.asarray(json_to_complex(obj))
    if not isinstance(obj, list):
        raise ParseError(f"expected a list at depth {ndim}, got {type(obj).__name__}")
    rows = [json_to_array(sub, ndim - 1) for sub in obj]
    if not rows:
        raise ParseError("empty array level in payload")
    shapes = {r.shape for r in rows}
    if len(shapes) != 1:
        raise ParseError("ragged array in payload")
    return np.stack(rows)


def matrix_to_json(a):
    return array_to_json(np.atleast_2d(a))


def json_to_matrix(obj) -> np.ndarray:
    a = json_to_array(obj, 2)
    return a.astype(np.complex128)


def laurent_to_json(f) -> dict:
    return {"dim": f.dim, "lo": f.lo, "coeffs": array_to_json(f.coeffs)}


def json_to_mat_laurent(obj) -> MatLaurent:
    check_schema_version(obj)
    try:
        coeffs = json_to_array(obj["coeffs"], 3)
        f = MatLaurent(int(obj["lo"]), coeffs)
        dim = int(obj["dim"])
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix Laurent payload: {exc}") from exc
    if f.dim != dim and not f.is_zero():
        raise ParseError(f"declared dim {dim} does not match coefficients")
    return f


def _reject_constant(name):
    raise ParseError(f"non-finite number {name} in JSON input")


def load_json_file(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError(f"top-level JSON value in {path} must be an object")
    return obj


def dump_json_file(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
