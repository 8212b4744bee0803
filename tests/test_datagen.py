"""Planted-pattern dataset generation."""

import random

import numpy as np
import pytest

from motifdiff import datagen
from motifdiff.cli import main
from motifdiff.counting import count_subgraphs
from motifdiff.datagen import DECORATIONS, _Stream, plant_pattern_dataset
from motifdiff.errors import GenerationError, InputError
from motifdiff.graphs import Graph, Pattern, canonical_form
from motifdiff.patterns import PATTERN_NAMES, get_pattern

from conftest import is_connected


def test_planted_counts_are_verified():
    ds = plant_pattern_dataset(get_pattern("c3"), n=6, count=20, seed=0)
    assert len(ds) == 20
    for g in ds:
        assert g.n == 6
        assert count_subgraphs(g, get_pattern("c3")) == 1
        assert is_connected(g)  # tree decoration hangs off the pattern
        assert g.m == 3 + 3  # pattern edges plus one per extra node


def test_decoration_none_leaves_isolated_nodes():
    ds = plant_pattern_dataset(get_pattern("c4"), n=7, count=5,
                               decoration="none", seed=1)
    for g in ds:
        assert g.m == 4
        assert not is_connected(g)
        assert count_subgraphs(g, get_pattern("c4")) == 1


def test_determinism_and_seed_sensitivity():
    a = plant_pattern_dataset(get_pattern("c5"), n=7, count=6, seed=3)
    b = plant_pattern_dataset(get_pattern("c5"), n=7, count=6, seed=3)
    assert a.graphs == b.graphs
    c = plant_pattern_dataset(get_pattern("c5"), n=7, count=6, seed=4)
    assert {canonical_form(g) for g in a} != {canonical_form(g) for g in c} \
        or a.graphs != c.graphs


def test_monitors_enforced():
    # with n == k the graph is the bare pattern, so monitored counts match
    # the pattern's own tally by construction
    ds = plant_pattern_dataset(get_pattern("c6"), n=6, count=4, seed=0,
                               monitors=(get_pattern("l5"),))
    for g in ds:
        assert count_subgraphs(g, get_pattern("l5")) == 6


def test_generation_error_when_budget_exhausted():
    # tree decoration on a planted 5-path keeps creating extra 5-paths, so a
    # budget of one attempt per graph cannot succeed
    with pytest.raises(GenerationError) as err:
        plant_pattern_dataset(get_pattern("l5"), n=7, count=8, seed=0,
                              max_retries=1)
    msg = str(err.value)
    assert "no valid placement" in msg
    assert "l5" in msg


def test_input_validation():
    marked = Pattern(Graph.from_edges(2, []), marks=(0, 1))
    with pytest.raises(InputError):
        plant_pattern_dataset(marked, n=4, count=1)
    with pytest.raises(InputError):
        plant_pattern_dataset(Pattern(Graph.from_edges(0, [])), n=4, count=1)
    with pytest.raises(InputError):
        plant_pattern_dataset(get_pattern("c6"), n=5, count=1)
    with pytest.raises(InputError):
        plant_pattern_dataset(get_pattern("c3"), n=4, count=0)
    with pytest.raises(InputError):
        plant_pattern_dataset(get_pattern("c3"), n=4, count=1,
                              decoration="clique")
    with pytest.raises(InputError):
        plant_pattern_dataset(get_pattern("c3"), n=4, count=1, max_retries=0)
    with pytest.raises(InputError, match="seed must be non-negative"):
        plant_pattern_dataset(get_pattern("c3"), n=4, count=1, seed=-1)


def test_metadata_records_the_run():
    ds = plant_pattern_dataset(get_pattern("c4"), n=5, count=2, seed=9,
                               monitors=(get_pattern("c3"),))
    md = ds.metadata
    assert md["generator"] == "plant-pattern"
    assert md["pattern"] == "c4"
    assert md["n"] == "5"
    assert md["count"] == "2"
    assert md["seed"] == "9"
    assert md["decoration"] == "tree"
    assert md["monitors"] == "c3"


def test_stream_matches_numpy():
    # permutation and integers interleaved, as tree decoration draws them
    picks = random.Random(19)
    for seed in (0, 2**32 - 1, 2**32, 2**64 + 5):
        for idx in (0, 1, 255, 2**16, 9999, 10**4,
                    *(picks.randrange(10**4) for _ in range(20))):
            ours, numpys = _Stream([seed, idx]), np.random.default_rng([seed, idx])
            for _ in range(8):
                if picks.random() < 0.5:
                    n = picks.randrange(40)
                    assert ours.permutation(n) == numpys.permutation(n).tolist()
                else:
                    high = picks.choice((1, 2, 3, 7, 12, 2**31 + 5, 2**32 - 1))
                    assert ours.integers(high) == int(numpys.integers(0, high))


class _NumpyStream:
    """The reference: numpy's own generator behind the same two methods."""

    def __init__(self, entropy):
        self._rng = np.random.default_rng(entropy)

    def permutation(self, n):
        return self._rng.permutation(n).tolist()

    def integers(self, high):
        return int(self._rng.integers(0, high))


@pytest.mark.parametrize("decoration", DECORATIONS)
def test_gen_data_bytes_match_numpy_reference(decoration, tmp_path,
                                              monkeypatch):
    ours, reference = tmp_path / "ours.jsonl", tmp_path / "reference.jsonl"
    for name in PATTERN_NAMES:
        argv = ["gen-data", "--pattern", name,
                "--n", str(get_pattern(name).k + 2), "--count", "4",
                "--decoration", decoration, "--seed", str(2**32 + 3),
                "--monitor", "c3,c4", "--out"]
        assert main(argv + [str(ours)]) == 0
        with monkeypatch.context() as m:
            m.setattr(datagen, "_Stream", _NumpyStream)
            assert main(argv + [str(reference)]) == 0
        assert ours.read_bytes() == reference.read_bytes(), name
