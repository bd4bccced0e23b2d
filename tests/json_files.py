"""Write a JSON document to a file, as the CLI's input files are written in the tests."""

import json


def dump_json_file(path, obj) -> None:
    """Sorted keys, two-space indent, no NaN or infinity, and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")
