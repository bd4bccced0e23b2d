"""Write a JSON document to a file, as the CLI's input files are written in
the tests, and the inner-function payload the CLI reads back."""

import json

from mttokit import serialize


def dump_json_file(path, obj) -> None:
    """Sorted keys, two-space indent, no NaN or infinity, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def inner_to_json(inner) -> dict:
    """The payload `--theta FILE` reads back as `inner`: its left unitary
    and factors for a Potapov product, its coefficients otherwise."""
    doc = {"schema_version": serialize.SCHEMA_VERSION}
    if inner._potapov is not None:
        u, factors, _ = inner._potapov
        doc["kind"] = "potapov"
        doc["left_unitary"] = serialize.matrix_to_json(u)
        doc["factors"] = [serialize.matrix_to_json(p) for p in factors]
    else:
        doc["kind"] = "coeffs"
        doc["laurent"] = serialize.laurent_to_json(inner.theta)
    return doc
