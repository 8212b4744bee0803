"""JSONL dataset reading and writing."""

import pytest

from motifdiff.cli import main
from motifdiff.dataio import (HOST_NODE_CAP, graph_to_json_dict, read_dataset,
                              read_dataset_lines, write_dataset)
from motifdiff.errors import CapacityError, InputError
from motifdiff.graphs import Dataset, Graph


def test_round_trip(tmp_path):
    ds = Dataset(
        graphs=(Graph.from_edges(3, [(0, 1), (1, 2)]), Graph.from_edges(2, [])),
        metadata={"seed": "9", "generator": "test"})
    path = tmp_path / "ds.jsonl"
    write_dataset(ds, path)
    back = read_dataset(path)
    assert back.graphs == ds.graphs
    assert back.metadata == ds.metadata


def test_one_based_conversion():
    ds = read_dataset_lines(['{"n": 3, "edges": [[1, 2], [2, 3]]}'])
    assert ds.graphs[0].edge_list == ((0, 1), (1, 2))
    assert graph_to_json_dict(ds.graphs[0]) == {"n": 3, "edges": [[1, 2], [2, 3]]}


def test_blank_lines_and_missing_meta_ok():
    ds = read_dataset_lines(["", '{"n": 1, "edges": []}', "   "])
    assert len(ds) == 1
    assert ds.metadata == {}


def test_meta_line_must_be_first():
    lines = ['{"n": 1, "edges": []}', '{"meta": {"a": "b"}}']
    with pytest.raises(InputError) as err:
        read_dataset_lines(lines, source="f")
    assert "line 2" in str(err.value)
    with pytest.raises(InputError):
        read_dataset_lines(['{"meta": {}}', '{"meta": {}}', '{"n": 1, "edges": []}'])
    with pytest.raises(InputError):
        read_dataset_lines(['{"meta": 3}', '{"n": 1, "edges": []}'])


def test_meta_values_coerced_to_strings():
    ds = read_dataset_lines(['{"meta": {"seed": 7}}', '{"n": 1, "edges": []}'])
    assert ds.metadata == {"seed": "7"}


def test_invalid_json_carries_line_number():
    with pytest.raises(InputError) as err:
        read_dataset_lines(['{"n": 1, "edges": []}', "{nope"], source="bad.jsonl")
    msg = str(err.value)
    assert "bad.jsonl" in msg and "line 2" in msg


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    # the JSON decoder recurses once per bracket and runs out of stack
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * 200_000 + "\n")
    assert main(["count", "--in", str(path), "--patterns", "c3"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {path}, line 1: invalid JSON (nested too deeply)\n"


def test_graph_line_key_policing():
    with pytest.raises(InputError):
        read_dataset_lines(['{"n": 1}'])
    with pytest.raises(InputError):
        read_dataset_lines(['{"n": 1, "edges": [], "extra": 0}'])
    with pytest.raises(InputError):
        read_dataset_lines(['{"n": true, "edges": []}'])
    with pytest.raises(InputError):
        read_dataset_lines(['{"n": 2, "edges": [[1, 2, 2]]}'])
    with pytest.raises(InputError):
        read_dataset_lines(['[1, 2]'])


def test_endpoint_errors_carry_line_number():
    with pytest.raises(InputError) as err:
        read_dataset_lines(['{"n": 1, "edges": []}', '{"n": 2, "edges": [[1, 3]]}'])
    assert "line 2" in str(err.value)


# One malformed graph line after a good one, and the reader's whole message.
# The shape checks (keys, the type of n, the host cap, pair shape) come
# before n >= 1, then each edge in turn: integer endpoints, 1..n, no loop.
MALFORMED_LINES = [
    ('{"n": 3}', "expected an object with exactly the keys 'n' and 'edges'"),
    ('[1, 2]', "expected an object with exactly the keys 'n' and 'edges'"),
    ('{"n": true, "edges": []}', "'n' must be an integer"),
    ('{"n": 2.0, "edges": []}', "'n' must be an integer"),
    ('{"n": 1001, "edges": [[1]]}', "1001 nodes exceeds the host cap of 1000"),
    ('{"n": 3, "edges": [[1, 2, 3]]}', "'edges' must be a list of pairs"),
    ('{"n": 3, "edges": [[1, 2], 7]}', "'edges' must be a list of pairs"),
    ('{"n": 0, "edges": [[1]]}', "'edges' must be a list of pairs"),
    ('{"n": 0, "edges": []}', "node count must be a positive integer"),
    ('{"n": -2, "edges": [[1, 1]]}', "node count must be a positive integer"),
    ('{"n": 3, "edges": [[1, true]]}', "edge (1, True) endpoints must be integers"),
    ('{"n": 3, "edges": [[2.0, 9]]}', "edge (2.0, 9) endpoints must be integers"),
    ('{"n": 3, "edges": [[null, "a"]]}', "edge (None, a) endpoints must be integers"),
    ('{"n": 3, "edges": [[0, 1]]}', "edge (0, 1) endpoint out of range 1..3"),
    ('{"n": 3, "edges": [[1, 4]]}', "edge (1, 4) endpoint out of range 1..3"),
    ('{"n": 3, "edges": [[4, 4]]}', "edge (4, 4) endpoint out of range 1..3"),
    ('{"n": 3, "edges": [[2, 2]]}', "self-loop at node 2"),
    ('{"n": 3, "edges": [[1, 2], [3, 3], [1, 9]]}', "self-loop at node 3"),
]


@pytest.mark.parametrize("line,message", MALFORMED_LINES)
def test_malformed_graph_line_message(line, message, tmp_path, capsys):
    lines = ['{"n": 1, "edges": []}', line]
    error = CapacityError if "host cap" in message else InputError
    with pytest.raises(error) as err:
        read_dataset_lines(lines, source="f")
    assert str(err.value) == f"f: line 2: {message}"
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(lines) + "\n")
    assert main(["count", "--in", str(path), "--patterns", "c3"]) == 2
    assert capsys.readouterr().err == f"error: {path}: line 2: {message}\n"


def test_repeated_and_reversed_edges_collapse():
    ds = read_dataset_lines(['{"n": 3, "edges": [[1, 2], [2, 3], [2, 1], [1, 2]]}'])
    assert ds.graphs[0].edge_list == ((0, 1), (1, 2))
    assert ds.graphs[0].m == 2


def test_empty_input_rejected():
    with pytest.raises(InputError):
        read_dataset_lines([])
    with pytest.raises(InputError):
        read_dataset_lines(['{"meta": {"only": "meta"}}'])


def test_host_node_cap(tmp_path):
    ok = read_dataset_lines([f'{{"n": {HOST_NODE_CAP}, "edges": [[1, 2]]}}'])
    assert ok.graphs[0].n == HOST_NODE_CAP
    line = f'{{"n": {HOST_NODE_CAP + 1}, "edges": []}}'
    with pytest.raises(CapacityError) as err:
        read_dataset_lines(['{"n": 1, "edges": []}', line], source="f")
    assert "f: line 2" in str(err.value)
    path = tmp_path / "big.jsonl"
    path.write_text(line + "\n")
    assert main(["count", "--in", str(path), "--patterns", "c3"]) == 2
