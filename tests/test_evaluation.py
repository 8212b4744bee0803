"""TV distances, novelty, and the combined evaluation report."""

import random
from fractions import Fraction

import pytest

from motifdiff.counting import CountDistribution
from motifdiff.errors import ContractError, InputError
from motifdiff.evaluation import (EvalReport, PatternEval, evaluate,
                                  novelty_ratio, tv_distance)
from motifdiff.graphs import Dataset, Graph, Pattern
from motifdiff.patterns import get_pattern

from conftest import complete_graph, permute_graph

# same degree sequence, not isomorphic (see test_graphs)
TWIN_A = Graph.from_edges(6, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)])
TWIN_B = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])


def dist(values):
    return CountDistribution.from_counts(values)


def test_tv_identical_and_disjoint():
    assert tv_distance(dist([1, 1, 2]), dist([1, 2, 1])) == 0.0
    assert tv_distance(dist([0, 0]), dist([3, 4])) == 1.0


def test_tv_point_mass_correspondence_is_exact():
    # training mass sits entirely on count 1; TV must equal the exact
    # fraction of generated graphs whose count differs, as a float
    train = dist([1] * 20)
    gen = dist([1] * 7 + [4, 4, 0])
    assert tv_distance(train, gen) == 0.30
    gen97 = dist([1] * 64 + [0] * 33)
    assert tv_distance(train, gen97) == float(Fraction(33, 97))


def test_tv_matches_fraction_reference():
    # the integer form rounds once, so it equals the exact rational TV rounded
    rng = random.Random(3)
    for _ in range(2000):
        p, q = ({v: rng.randint(0, rng.choice([3, 10**6]))
                 for v in rng.sample(range(8), rng.randint(1, 8))}
                for _ in range(2))
        if not sum(p.values()) or not sum(q.values()):
            continue
        P, Q = CountDistribution(p), CountDistribution(q)
        want = sum(abs(Fraction(p.get(v, 0), P.sample_size)
                       - Fraction(q.get(v, 0), Q.sample_size))
                   for v in set(p) | set(q)) / 2
        assert tv_distance(P, Q) == float(want)


def test_novelty_modes():
    train = Dataset(graphs=(TWIN_A,))
    relabeled = Dataset(graphs=(permute_graph(TWIN_A, [5, 3, 1, 0, 2, 4]),))
    assert novelty_ratio(relabeled, train, mode="isomorphism") == 0.0
    other = Dataset(graphs=(TWIN_B, permute_graph(TWIN_A, [1, 0, 2, 3, 4, 5])))
    assert novelty_ratio(other, train, mode="isomorphism") == 0.5
    # size mode only sees (n, m), and the twins share both
    assert novelty_ratio(other, train, mode="size") == 0.0
    assert novelty_ratio(Dataset(graphs=()), train) == 0.0
    with pytest.raises(InputError):
        novelty_ratio(train, train, mode="spectral")


def test_evaluate_self_comparison():
    ds = Dataset(graphs=(complete_graph(4), complete_graph(4),
                         Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])))
    report = evaluate(ds, ds, [get_pattern("c3"), get_pattern("c4")])
    assert set(report.per_pattern) == {"c3", "c4"}
    for pe in report.per_pattern.values():
        assert pe.tv == 0.0
    assert report.novelty == 0.0
    assert report.n_train == report.n_gen == 3
    assert report.config["novelty_mode"] == "isomorphism"
    assert report.config["patterns"] == "c3,c4"
    d = report.to_json_dict()
    assert d["patterns"]["c3"]["tv"] == 0.0
    assert d["patterns"]["c3"]["train"]["sample_size"] == 3


def test_evaluate_nonzero_tv():
    train = Dataset(graphs=(complete_graph(4),) * 4)
    gen = Dataset(graphs=(complete_graph(4),) * 3 + (Graph.from_edges(4, []),))
    report = evaluate(train, gen, [get_pattern("c3")])
    assert report.per_pattern["c3"].tv == 0.25
    assert report.novelty == 0.25


def test_evaluate_input_policing():
    ds = Dataset(graphs=(complete_graph(4),))
    with pytest.raises(InputError):
        evaluate(Dataset(graphs=()), ds, [get_pattern("c3")])
    with pytest.raises(InputError):
        evaluate(ds, ds, [get_pattern("c3"), get_pattern("c3")])
    # unnamed patterns get positional names
    nameless = Pattern(Graph.from_edges(2, [(0, 1)]))
    report = evaluate(ds, ds, [nameless])
    assert set(report.per_pattern) == {"pattern0"}


def test_eval_report_validates_histogram_sizes():
    pe = PatternEval(tv=0.0, train_hist=dist([1, 1]), gen_hist=dist([1]))
    with pytest.raises(ContractError):
        EvalReport(per_pattern={"c3": pe}, novelty=0.0, n_train=2, n_gen=9,
                   config={})
    with pytest.raises(ContractError):
        EvalReport(per_pattern={"c3": PatternEval(tv=1.5,
                                                  train_hist=dist([1, 1]),
                                                  gen_hist=dist([1]))},
                   novelty=0.0, n_train=2, n_gen=1, config={})
