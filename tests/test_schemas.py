"""The output schemas themselves, and the validator that applies them.

The package checks outputs with its own small checker; jsonschema is the
witness it must agree with on what is accepted and rejected, and, where an
output breaks its schema once, on where.
"""

import copy
import json

import jsonschema
import pytest

from motifdiff import schemas
from motifdiff.cli import main
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


def test_validate_output_names_the_path_and_the_problem():
    line = {"sample": 0, "t": 0.5, "W": [[0.0], ["x"]]}
    with pytest.raises(ContractError) as got:
        schemas.validate_output(line, schemas.TRAJECTORY_LINE)
    assert str(got.value) == ("output failed its schema at $.W[1][0]:"
                              " expected number, got 'x'")


def test_validate_output_accepts_valid_output():
    schemas.validate_output({"sample": 0, "t": 0.5, "W": [[0.0, 1.0], [1.0, 0.0]]},
                            schemas.TRAJECTORY_LINE)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real count, eval, verify and sample --trajectories outputs."""
    d = tmp_path_factory.mktemp("outputs")
    train, gen = str(d / "train.jsonl"), str(d / "gen.jsonl")
    paths = {name: str(d / f"{name}.json")
             for name in ("count", "eval", "verify", "trajectory")}
    for argv in (
            ["gen-data", "--pattern", "c3", "--n", "4", "--count", "6",
             "--seed", "7", "--out", train],
            ["count", "--in", train, "--patterns", "c3,c4",
             "--threads", "1", "--out", paths["count"]],
            ["sample", "--train", train, "--num-samples", "2", "--steps", "10",
             "--threads", "1", "--trajectories", paths["trajectory"],
             "--out", gen],
            ["eval", "--train", train, "--gen", gen, "--patterns", "c3,c4",
             "--threads", "1", "--out", paths["eval"]],
            ["verify", "--suite", "basis", "--n", "3", "--out", paths["verify"]]):
        assert main(argv) == 0, argv
    with open(paths["trajectory"], encoding="utf-8") as fh:
        line = json.loads(fh.readline())
    reports = {}
    for name in ("count", "eval", "verify"):
        with open(paths[name], encoding="utf-8") as fh:
            reports[name] = json.load(fh)
    return {"count": (reports["count"], schemas.COUNT_REPORT),
            "eval": (reports["eval"], schemas.EVAL_REPORT),
            "verify": (reports["verify"], schemas.VERIFY_REPORT),
            "trajectory": (line, schemas.TRAJECTORY_LINE)}


def _first(d):
    return d[next(iter(d))]


def _pattern(o):
    return _first(o["patterns"])


# (case, output, mutation, whether jsonschema rejects the result)
MUTATIONS = [
    ("valid", "count", lambda o: None, False),
    ("valid", "eval", lambda o: None, False),
    ("valid", "verify", lambda o: None, False),
    ("valid", "trajectory", lambda o: None, False),
    ("wrong-type", "count", lambda o: o.update(n_graphs="6"), True),
    ("wrong-type", "eval", lambda o: o.update(novelty=None), True),
    ("wrong-type", "verify", lambda o: o["suites"][0].update(checks=[1]), True),
    ("wrong-type", "trajectory", lambda o: o["W"][0].__setitem__(0, "0.0"), True),
    ("true-as-int", "count", lambda o: o.update(n_graphs=True), True),
    ("true-as-int", "verify", lambda o: o["suites"][0].update(failures=True), True),
    ("true-as-int", "trajectory", lambda o: o.update(sample=True), True),
    ("float-as-int", "count", lambda o: o.update(n_graphs=1.0), False),
    ("float-as-int", "eval", lambda o: o.update(n_gen=2.0), False),
    ("float-as-int", "trajectory", lambda o: o.update(sample=1.0), False),
    ("negative-count", "count",
     lambda o: _pattern(o)["per_graph"].__setitem__(0, -1), True),
    ("negative-count", "eval",
     lambda o: _pattern(o)["train"]["counts"].update({"1": -3}), True),
    ("negative-count", "verify", lambda o: o["suites"][0].update(failures=-1), True),
    ("tv-above-1", "eval", lambda o: _pattern(o).update(tv=1.5), True),
    ("missing-key", "count",
     lambda o: _pattern(o)["histogram"].pop("sample_size"), True),
    ("missing-key", "eval", lambda o: o.pop("config"), True),
    ("missing-key", "verify", lambda o: o["suites"][0].pop("tolerance"), True),
    ("missing-key", "trajectory", lambda o: o.pop("W"), True),
    ("extra-key", "count", lambda o: o.update(extra=1), True),
    ("extra-key", "eval", lambda o: _pattern(o).update(extra=1), True),
    ("extra-key", "verify", lambda o: o["suites"][0].update(extra=1), True),
    ("extra-key", "trajectory", lambda o: o.update(extra=1), True),
    ("extra-keys", "count", lambda o: o.update(zz=1, extra=2), True),
    ("histogram-key", "count",
     lambda o: _pattern(o)["histogram"]["counts"].update({"01": 1}), True),
    ("histogram-key", "eval",
     lambda o: _pattern(o)["gen"]["mass"].update({"-1": 0.5}), True),
    ("empty-suites", "verify", lambda o: o.update(suites=[]), True),
    # several violations: both reject; the checker names the first it meets
    ("several", "count",
     lambda o: (o.update(n_graphs=0), o["config"].update(input=3)), True),
    ("siblings", "count", lambda o: o.update(n_graphs=0, config=5), True),
    ("siblings", "trajectory", lambda o: o.update(sample=-1, t="late"), True),
    ("type-and-item", "trajectory", lambda o: o.update(t="late", W=[["x"]]), True),
    ("negative-sample", "trajectory", lambda o: o.update(sample=-1), True),
    ("pattern-property", "count",
     lambda o: _pattern(o)["histogram"]["counts"].update({"1": -1}), True),
    ("suite-item", "verify", lambda o: o["suites"][0].pop("checks"), True),
    ("several", "eval",
     lambda o: (o.pop("n_train"), o.update(n_gen=0, extra=1)), True),
]


def _json_path(parts):
    """jsonschema's absolute_path in the checker's $.key[index] notation."""
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else
                         f".{p}" if p.isidentifier() else f"[{p!r}]"
                         for p in parts)


@pytest.mark.parametrize(
    "case, output, mutate, rejects", MUTATIONS,
    ids=[f"{output}-{case}" for case, output, _, _ in MUTATIONS])
def test_checker_agrees_with_jsonschema(outputs, case, output, mutate, rejects):
    obj, schema = copy.deepcopy(outputs[output][0]), outputs[output][1]
    mutate(obj)
    errors = list(jsonschema.validators.validator_for(schema)(schema)
                  .iter_errors(obj))
    assert bool(errors) == rejects
    try:
        schemas.validate_output(obj, schema)
    except ContractError as exc:
        got = str(exc)
    else:
        got = None
    assert (got is not None) == rejects
    if len(errors) == 1:
        where = f"output failed its schema at {_json_path(errors[0].absolute_path)}: "
        assert got.startswith(where), (got, where)
