"""Invariant and equivariant monomial bases, index-tuple bookkeeping."""

import itertools
from math import factorial

import numpy as np
import pytest

from motifdiff.counting import count_rooted, count_subgraphs
from motifdiff.errors import CapacityError, ContractError, InputError
from motifdiff.graphs import Graph, Pattern, automorphism_count
from motifdiff.patterns import PATTERN_LIBRARY, derive_marked_patterns
from motifdiff.polynomials import (IndexTuple, equivariant_basis,
                                   first_occurrence_relabel, invariant_basis,
                                   invariant_monomial_sum, monomial_graph,
                                   monomial_sum, pinned_monomial_matrix)

from conftest import complete_graph, make_random_graph

EDGE = Pattern(Graph.from_edges(2, [(0, 1)]), name="edge")
MARKED_EDGE = Pattern(Graph.from_edges(2, [(0, 1)]), marks=(0, 1))


def test_monomial_sum_single_edge():
    g = make_random_graph(5, 0.5, np.random.default_rng(0))
    raw = monomial_sum(g.adj.astype(np.int64), 2, [(0, 1)])
    assert isinstance(raw, int)
    assert raw == 2 * g.m  # each edge hit once per orientation
    fraw = monomial_sum(g.adj.astype(np.float64), 2, [(0, 1)])
    assert isinstance(fraw, float) and fraw == float(raw)


def test_monomial_sum_edge_cases():
    W = np.arange(9).reshape(3, 3)
    assert monomial_sum(W, 0, []) == 1
    assert monomial_sum(W, 4, []) == 0
    with pytest.raises(InputError):
        monomial_sum(W, 2, [(0, 2)])
    with pytest.raises(InputError):
        monomial_sum(np.zeros((2, 3)), 2, [])
    with pytest.raises(InputError):
        monomial_sum(W, -1, [])


def test_monomial_sum_repeats_keep_multiplicity():
    rng = np.random.default_rng(1)
    W = rng.standard_normal((4, 4))
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    got = monomial_sum(W, 2, [(0, 1), (0, 1)])
    want = sum(W[i, j] ** 2 for i in range(4) for j in range(4) if i != j)
    assert got == pytest.approx(want, rel=1e-12)


def test_invariant_sum_equals_aut_times_count():
    rng = np.random.default_rng(2)
    for _ in range(15):
        g = make_random_graph(int(rng.integers(2, 7)), 0.5, rng)
        for name in ("c3", "c4", "l5"):
            p = PATTERN_LIBRARY[name]
            raw = invariant_monomial_sum(g.adj.astype(np.int64), p)
            assert raw == automorphism_count(p.graph) * count_subgraphs(g, p)


def test_invariant_basis_frozen_values():
    assert invariant_basis(complete_graph(3).adj, PATTERN_LIBRARY["c3"]) == 1.0
    g = make_random_graph(5, 0.4, np.random.default_rng(3))
    assert invariant_basis(g.adj, EDGE) == pytest.approx(
        2 * g.m / factorial(5), rel=1e-15)
    # pattern larger than the host contributes nothing
    assert invariant_basis(complete_graph(3).adj, PATTERN_LIBRARY["c4"]) == 0.0


def test_equivariant_basis_marked_edge():
    n = 4
    W = np.zeros((n, n))
    W[0, 1] = W[1, 0] = 0.7
    W[2, 3] = W[3, 2] = -0.2
    out = equivariant_basis(W, MARKED_EDGE)
    scale = factorial(n - 2) / factorial(n)
    assert out[0, 1] == pytest.approx(scale * 0.7, rel=1e-15)
    assert out[2, 3] == pytest.approx(scale * -0.2, rel=1e-15)
    assert out[0, 0] == 0.0
    assert np.array_equal(out, out.T)


def test_equivariant_matches_rooted_counts():
    # on a binary matrix, n! * entry == (n-k)! * rooted count
    rng = np.random.default_rng(4)
    marked = derive_marked_patterns([PATTERN_LIBRARY["c4"]])[0]
    for _ in range(6):
        g = make_random_graph(5, 0.6, rng)
        out = equivariant_basis(g.adj, marked)
        for i in range(g.n):
            for j in range(g.n):
                if i == j:
                    continue
                want = (factorial(g.n - marked.k)
                        * count_rooted(g, i, j, marked))
                assert factorial(g.n) * out[i, j] == pytest.approx(want, rel=1e-12)


def test_basis_pattern_contracts():
    W = np.zeros((8, 8))
    with pytest.raises(ContractError):
        invariant_basis(W, MARKED_EDGE)
    with pytest.raises(ContractError):
        equivariant_basis(W, EDGE)
    with pytest.raises(CapacityError):
        invariant_basis(W, PATTERN_LIBRARY["c7"])
    # the cap is part of the contract; it fires even when k > n would have
    # short-circuited the value to zero
    with pytest.raises(CapacityError):
        invariant_basis(np.zeros((3, 3)), PATTERN_LIBRARY["c8"])


def test_pinned_matrix_validation():
    W = np.zeros((4, 4))
    with pytest.raises(InputError):
        pinned_monomial_matrix(W, 1, [], 0, 0)
    with pytest.raises(InputError):
        pinned_monomial_matrix(W, 3, [], 0, 0)
    with pytest.raises(InputError):
        pinned_monomial_matrix(W, 3, [(0, 3)], 0, 1)
    out = pinned_monomial_matrix(W, 5, [], 0, 1)  # k above n: all zero
    assert not out.any()


def test_index_tuple_validation():
    t = IndexTuple(entries=(2, 3, 2, 0), roots=(0, 1))
    assert t.scan_order() == (0, 1, 2, 3, 2, 0)
    assert IndexTuple(entries=()).scan_order() == ()
    with pytest.raises(InputError):
        IndexTuple(entries=(1, 2, 3))
    with pytest.raises(InputError):
        IndexTuple(entries=(), roots=(1, 2, 3))


def test_first_occurrence_relabel():
    assert first_occurrence_relabel((3, 1, 3, 7)) == (0, 1, 0, 2)
    assert first_occurrence_relabel(()) == ()


def test_monomial_graph_degenerate():
    assert monomial_graph(IndexTuple(entries=(2, 2))).vanishing
    assert monomial_graph(IndexTuple(entries=(0, 1), roots=(3, 3))).vanishing


def test_monomial_graph_root_edge_handling():
    # the root pair becomes a pattern edge but not a monomial factor
    mg = monomial_graph(IndexTuple(entries=(2, 3), roots=(0, 1)))
    assert not mg.vanishing
    assert mg.pattern.marks == (0, 1)
    assert mg.pattern.graph.edge_list == ((0, 1), (2, 3))
    assert mg.multi_edges == ((2, 3),)
    # unless the tuple itself repeats the root pair
    mg2 = monomial_graph(IndexTuple(entries=(0, 1), roots=(0, 1)))
    assert mg2.pattern.graph.edge_list == ((0, 1),)
    assert mg2.multi_edges == ((0, 1),)


def test_monomial_graph_collapses_with_multiplicity():
    t = IndexTuple(entries=(5, 9, 9, 5, 5, 9))
    mg = monomial_graph(t)
    assert mg.pattern.graph.n == 2
    assert mg.pattern.graph.edge_list == ((0, 1),)
    assert mg.multi_edges == ((0, 1), (0, 1), (0, 1))
    assert mg.pattern.marks is None


def test_monomial_graph_agrees_with_direct_evaluation():
    # evaluating the multi-edge monomial must reproduce the raw tuple product
    rng = np.random.default_rng(5)
    n = 4
    W = rng.standard_normal((n, n))
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    for entries in [(0, 1, 1, 2), (0, 1, 0, 1), (0, 1, 2, 3)]:
        t = IndexTuple(entries=entries)
        mg = monomial_graph(t)
        k = mg.pattern.graph.n
        got = monomial_sum(W, k, mg.multi_edges)
        want = 0.0
        for hosts in itertools.permutations(range(n), k):
            prod = 1.0
            for a, b in mg.multi_edges:
                prod *= W[hosts[a], hosts[b]]
            want += prod
        assert got == pytest.approx(want, rel=1e-12)
