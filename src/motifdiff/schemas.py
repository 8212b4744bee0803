"""JSON schemas for everything the CLI emits.

Outputs are validated against these before being written, so a schema
violation is a bug in this package, not bad user input; validation failures
therefore raise ContractError.
"""

from __future__ import annotations

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


def validate_output(obj, schema) -> None:
    import jsonschema  # here, so commands that validate nothing never load it
    # jsonschema.validate would also re-check the schema against its
    # metaschema on every call, the bulk of its cost; the schemas here are
    # constants whose validity the test suite checks once.
    validator = jsonschema.validators.validator_for(schema)(schema)
    error = jsonschema.exceptions.best_match(validator.iter_errors(obj))
    if error is not None:
        raise ContractError(f"output failed its schema: {error.message}")
