"""Invariant and equivariant monomial bases, index-tuple bookkeeping."""

import itertools
from math import factorial, perm

import numpy as np
import pytest

from motifdiff.counting import count_rooted, count_subgraphs
from motifdiff.errors import CapacityError, ContractError, InputError
from motifdiff.graphs import Graph, Pattern, automorphism_count
from motifdiff.patterns import PATTERN_LIBRARY, derive_marked_patterns
from motifdiff.polynomials import (_expansion_terms, _injective_assignments,
                                   equivariant_basis, first_occurrence_relabel,
                                   invariant_basis, monomial_sum,
                                   pinned_monomial_matrix)

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
            raw = monomial_sum(g.adj.astype(np.int64), p.k, p.graph.edge_list)
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


def test_first_occurrence_relabel():
    assert first_occurrence_relabel((3, 1, 3, 7)) == (0, 1, 0, 2)
    assert first_occurrence_relabel(()) == ()


def test_monomial_graph_degenerate():
    # (2, 2) and the roots (3, 3) put a pair on one node: those tuples vanish,
    # so only the 3 * 2 tuples of distinct pairs are left
    assert list(_expansion_terms(3, 2, False)) == [(6, 2, ((0, 1),), ((0, 1),))]
    rooted = list(_expansion_terms(4, 4, True))
    assert sum(mult for mult, *_ in rooted) == (4 * 3) ** 2
    assert all(simple[0] == (0, 1) for _, _, simple, _ in rooted)


def test_monomial_graph_root_edge_handling():
    # the root pair becomes a pattern edge but not a monomial factor: the
    # roots (0, 1) with entries (2, 3) are the 4! tuples of distinct nodes
    terms = list(_expansion_terms(4, 4, True))
    assert (24, 4, ((0, 1), (2, 3)), ((2, 3),)) in terms
    # unless the tuple itself repeats the root pair: (0, 1, 0, 1) and
    # (0, 1, 1, 0) each stand for 4 * 3 tuples
    assert terms.count((12, 2, ((0, 1),), ((0, 1),))) == 2


def test_monomial_graph_collapses_with_multiplicity():
    # (5, 9, 9, 5, 5, 9) relabels to (0, 1, 1, 0, 0, 1), one of 10 * 9 tuples
    terms = list(_expansion_terms(10, 6, False))
    assert (90, 2, ((0, 1),), ((0, 1), (0, 1), (0, 1))) in terms


def test_monomial_graph_agrees_with_direct_evaluation():
    # evaluating the multi-edge monomial must reproduce the raw tuple product
    rng = np.random.default_rng(5)
    n = 4
    W = rng.standard_normal((n, n))
    W = W + W.T
    np.fill_diagonal(W, 0.0)
    for mult, k, simple, multi in _expansion_terms(n, 4, False):
        got = monomial_sum(W, k, multi)
        want = 0.0
        for hosts in itertools.permutations(range(n), k):
            prod = 1.0
            for a, b in multi:
                prod *= W[hosts[a], hosts[b]]
            want += prod
        assert got == pytest.approx(want, rel=1e-12)


def _reference_term(key, rooted):
    # the monomial and collapsed pattern of one relabeled tuple, pair by pair
    pairs = [tuple(sorted(key[i:i + 2])) for i in range(0, len(key), 2)]
    factors = pairs[1:] if rooted else pairs
    return len(set(key)), tuple(sorted(set(pairs))), tuple(sorted(factors))


@pytest.mark.parametrize("rooted", [False, True])
def test_expansion_terms_match_brute_force_tally(rooted):
    for n in range(1, 4):
        for length in range(2 if rooted else 0, 7, 2):
            tally: dict = {}
            for t in itertools.product(range(n), repeat=length):
                if any(t[i] == t[i + 1] for i in range(0, length, 2)):
                    continue
                key = first_occurrence_relabel(t)
                tally[key] = tally.get(key, 0) + 1
            want = [(mult, *_reference_term(key, rooted))
                    for key, mult in tally.items()]
            assert list(_expansion_terms(n, length, rooted)) == want


def test_assignment_cap_refuses_before_enumerating():
    with pytest.raises(CapacityError):
        monomial_sum(np.zeros((20, 20), dtype=np.int64), 6, [])
    with pytest.raises(CapacityError):
        invariant_basis(np.zeros((20, 20)), PATTERN_LIBRARY["c6"])


@pytest.mark.parametrize("n", range(8))
def test_injective_assignments_are_the_permutations_in_order(n):
    for k in range(n + 2):
        got = _injective_assignments(n, k)
        want = np.array(list(itertools.permutations(range(n), k)),
                        dtype=np.intp).reshape(perm(n, k), k)
        assert got.dtype == np.intp and not got.flags.writeable
        assert np.array_equal(got, want) and got.shape == want.shape
