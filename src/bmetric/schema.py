"""The JSON schemas shipped with the package, and the report base class."""

from __future__ import annotations

import json
from dataclasses import asdict
from importlib import resources

SCHEMA_NAMES = (
    "space",
    "generate",
    "constants",
    "remetrize",
    "doubling",
    "embed",
    "pipeline",
    "verify",
)


def load_schema(name: str) -> dict:
    if name not in SCHEMA_NAMES:
        raise KeyError(f"unknown schema {name!r}")
    path = resources.files("bmetric") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


class Report:
    """Base of the report dataclasses: a report's JSON is its fields, by name.

    Only scalars, strings and tuples of them belong in a report's fields, as
    `asdict` deep-copies every value; a result holding an array writes its
    own `to_dict`."""

    def to_dict(self) -> dict:
        return asdict(self)
