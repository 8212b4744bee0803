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
