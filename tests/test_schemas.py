"""The output schemas themselves, and the validator that applies them."""

import jsonschema
import pytest

from motifdiff import schemas
from motifdiff.errors import ContractError

SCHEMAS = {name: value for name, value in vars(schemas).items()
           if not name.startswith("__") and isinstance(value, dict)
           and "type" in value}


def test_schema_table_is_complete():
    assert {"HISTOGRAM", "COUNT_REPORT", "EVAL_REPORT", "SUITE_REPORT",
            "VERIFY_REPORT", "TRAJECTORY_LINE"} <= set(SCHEMAS)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_schema_is_valid_under_its_metaschema(name):
    # validate_output skips this per-call check, so it is made here
    schema = SCHEMAS[name]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("line", [
    {"sample": -1, "t": 0.5, "W": [[0.0]]},
    {"sample": 0, "t": 0.5},
    {"sample": 0, "t": 0.5, "W": [[0.0]], "extra": 1},
    {"sample": 0, "t": "late", "W": [["x"]]},
])
def test_validate_output_reports_the_best_match(line):
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(instance=line, schema=schemas.TRAJECTORY_LINE)
    with pytest.raises(ContractError) as got:
        schemas.validate_output(line, schemas.TRAJECTORY_LINE)
    assert str(got.value) == f"output failed its schema: {expected.value.message}"


def test_validate_output_accepts_valid_output():
    schemas.validate_output({"sample": 0, "t": 0.5, "W": [[0.0, 1.0], [1.0, 0.0]]},
                            schemas.TRAJECTORY_LINE)
