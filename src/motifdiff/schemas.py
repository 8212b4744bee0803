"""JSON schemas for everything the CLI emits.

Outputs are validated against these before being written, so a schema
violation is a bug in this package, not bad user input; validation failures
therefore raise ContractError. The checker here covers only the keywords
these schemas use, and reports the violation jsonschema would, in its words.
"""

from __future__ import annotations

import numbers
import re

from .errors import ContractError

_COUNT_KEY = "^(0|[1-9][0-9]*)$"

HISTOGRAM = {
    "type": "object",
    "properties": {
        "mass": {
            "type": "object",
            "patternProperties": {_COUNT_KEY: {"type": "number",
                                               "minimum": 0, "maximum": 1}},
            "additionalProperties": False,
        },
        "counts": {
            "type": "object",
            "patternProperties": {_COUNT_KEY: {"type": "integer", "minimum": 0}},
            "additionalProperties": False,
        },
        "sample_size": {"type": "integer", "minimum": 1},
    },
    "required": ["mass", "counts", "sample_size"],
    "additionalProperties": False,
}

_CONFIG = {
    "type": "object",
    "additionalProperties": {"type": "string"},
}

COUNT_REPORT = {
    "type": "object",
    "properties": {
        "config": _CONFIG,
        "n_graphs": {"type": "integer", "minimum": 1},
        "patterns": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "per_graph": {"type": "array",
                                  "items": {"type": "integer", "minimum": 0}},
                    "histogram": HISTOGRAM,
                },
                "required": ["per_graph", "histogram"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["config", "n_graphs", "patterns"],
    "additionalProperties": False,
}

EVAL_REPORT = {
    "type": "object",
    "properties": {
        "patterns": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "properties": {
                    "tv": {"type": "number", "minimum": 0, "maximum": 1},
                    "train": HISTOGRAM,
                    "gen": HISTOGRAM,
                },
                "required": ["tv", "train", "gen"],
                "additionalProperties": False,
            },
        },
        "novelty": {"type": "number", "minimum": 0, "maximum": 1},
        "n_train": {"type": "integer", "minimum": 1},
        "n_gen": {"type": "integer", "minimum": 1},
        "config": _CONFIG,
    },
    "required": ["patterns", "novelty", "n_train", "n_gen", "config"],
    "additionalProperties": False,
}

SUITE_REPORT = {
    "type": "object",
    "properties": {
        "suite": {"type": "string"},
        "passed": {"type": "boolean"},
        "checks": {"type": "integer", "minimum": 0},
        "failures": {"type": "integer", "minimum": 0},
        "failure_examples": {"type": "array", "items": {"type": "string"}},
        "max_error": {"type": "number"},
        "tolerance": {"type": "number"},
        "params": {"type": "object"},
    },
    "required": ["suite", "passed", "checks", "failures", "max_error",
                 "tolerance", "params"],
    "additionalProperties": False,
}

VERIFY_REPORT = {
    "type": "object",
    "properties": {
        "suites": {"type": "array", "items": SUITE_REPORT, "minItems": 1},
        "passed": {"type": "boolean"},
    },
    "required": ["suites", "passed"],
    "additionalProperties": False,
}

TRAJECTORY_LINE = {
    "type": "object",
    "properties": {
        "sample": {"type": "integer", "minimum": 0},
        "t": {"type": "number"},
        "W": {"type": "array",
              "items": {"type": "array", "items": {"type": "number"}}},
    },
    "required": ["sample", "t", "W"],
    "additionalProperties": False,
}


_KINDS = {"object": dict, "array": list, "string": str, "boolean": bool,
          "number": numbers.Number, "integer": int}


def _is(x, kind: str) -> bool:
    """jsonschema's type rules: a bool is only a boolean, 1.0 is an integer."""
    if isinstance(x, bool):
        return kind == "boolean"
    return isinstance(x, _KINDS[kind]) or (
        kind == "integer" and isinstance(x, float) and x.is_integer())


def _errors(x, schema, path=()):
    """(path, message) of each violation, in jsonschema's order and words,
    for the keywords the schemas above use."""
    obj, arr, num = isinstance(x, dict), isinstance(x, list), _is(x, "number")
    for key, value in schema.items():
        below = []  # (item, its schema, its key) to check next
        if key == "type" and not _is(x, value):
            yield path, f"{x!r} is not of type {value!r}"
        elif key == "properties" and obj:
            below = [(x[k], sub, k) for k, sub in value.items() if k in x]
        elif key == "patternProperties" and obj:
            below = [(item, sub, k) for pattern, sub in value.items()
                     for k, item in x.items() if re.search(pattern, k)]
        elif key == "additionalProperties" and obj:
            patterns = "|".join(schema.get("patternProperties", {}))
            extras = sorted(k for k in x if k not in schema.get("properties", {})
                            and not (patterns and re.search(patterns, k)))
            names, one = ", ".join(map(repr, extras)), len(extras) == 1
            if isinstance(value, dict):
                below = [(x[k], value, k) for k in extras]
            elif not value and extras and "patternProperties" in schema:
                regexes = ", ".join(map(repr, sorted(schema["patternProperties"])))
                yield path, (f"{names} {'does' if one else 'do'} not match any"
                             f" of the regexes: {regexes}")
            elif not value and extras:
                yield path, (f"Additional properties are not allowed ({names}"
                             f" {'was' if one else 'were'} unexpected)")
        elif key == "required" and obj:
            for k in value:
                if k not in x:
                    yield path, f"{k!r} is a required property"
        elif key == "items" and arr:
            below = [(item, value, i) for i, item in enumerate(x)]
        elif key == "minItems" and arr and len(x) < value:
            yield path, f"{x!r} {'should be non-empty' if value == 1 else 'is too short'}"
        elif key == "minimum" and num and x < value:
            yield path, f"{x!r} is less than the minimum of {value!r}"
        elif key == "maximum" and num and x > value:
            yield path, f"{x!r} is greater than the maximum of {value!r}"
        for item, sub, k in below:
            yield from _errors(item, sub, path + (k,))


def validate_output(obj, schema) -> None:
    # jsonschema's best match: the shallowest violation, then the greatest
    # path among siblings, and the first of those. Its last tie-break, a
    # type mismatch, never decides here: violations at one path all come
    # from one schema.
    error = max(_errors(obj, schema), default=None,
                key=lambda e: (-len(e[0]), e[0]))
    if error is not None:
        raise ContractError(f"output failed its schema: {error[1]}")
