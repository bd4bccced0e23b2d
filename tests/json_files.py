"""Write a JSON document to a file, as the CLI's input files are written in
the tests, and the inner-function and operator payloads the CLI reads back."""

import json

import numpy as np

from mttokit import serialize


def dump_json_file(path, obj) -> None:
    """Sorted keys, two-space indent, no NaN or infinity, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def inner_to_json(inner, factors=None, left_unitary=None) -> dict:
    """The payload `--theta FILE` reads back as `inner`: a Potapov payload
    when the test that built `inner` passes the factors (and the left
    unitary, I if omitted) it built it from, the coefficients otherwise."""
    doc = {"schema_version": serialize.SCHEMA_VERSION}
    if factors is not None:
        doc["kind"] = "potapov"
        doc["left_unitary"] = serialize.matrix_to_json(np.eye(inner.d) if left_unitary is None else left_unitary)
        doc["factors"] = [serialize.matrix_to_json(p) for p in factors]
    else:
        doc["kind"] = "coeffs"
        doc["laurent"] = serialize.laurent_to_json(inner.theta)
    return doc


def operator_to_json(op) -> dict:
    """The document `op build` writes for the OperatorMatrix `op`, which
    `--op FILE` reads back: its entries, n and the basis_id of its basis."""
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "n": op.basis.n,
        "basis_id": op.basis.basis_id,
        "entries": serialize.matrix_to_json(op.mat),
    }
