"""The one JSON loader CI uses: RFC 8259, nothing more.

Python's ``json.load`` accepts ``NaN``, ``Infinity`` and ``-Infinity`` and
silently keeps the last of two equal keys, so an artifact that no other
consumer can read passes it. These loaders raise on both;
``ci/perf_gate.py`` reads every artifact through them.
"""

import json


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def _reject_duplicates(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def loads(text):
    """Parse one JSON document from a string (one line of a JSONL file)."""
    return json.loads(text, parse_constant=_reject_constant,
                      object_pairs_hook=_reject_duplicates)


def load(path):
    """Parse the JSON document in the file at ``path``."""
    with open(path) as f:
        try:
            return loads(f.read())
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e
