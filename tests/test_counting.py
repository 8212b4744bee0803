"""Subgraph counting: matcher, brute-force oracle, count distributions."""

import numpy as np
import pytest

from motifdiff import counting
from motifdiff.counting import (CountDistribution, _compile,
                                count_injective_homs, count_rooted,
                                count_subgraphs, count_table,
                                naive_count_oracle)
from motifdiff.errors import CapacityError, ContractError, InputError
from motifdiff.graphs import Dataset, Graph, Pattern
from motifdiff.patterns import (PATTERN_LIBRARY, derive_marked_patterns,
                                fused_cycles_graph, get_pattern)
from motifdiff.polynomials import pinned_monomial_matrix

from conftest import (complete_graph, cycle_counts_by_traces,
                      make_random_graph)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_frozen_counts():
    # hand-countable fixtures
    assert count_injective_homs(complete_graph(3), get_pattern("c3")) == 6
    assert count_subgraphs(complete_graph(3), get_pattern("c3")) == 1
    assert count_subgraphs(complete_graph(4), get_pattern("c3")) == 4
    assert count_subgraphs(complete_graph(4), get_pattern("c4")) == 3
    # a cycle of length L holds exactly L paths on any smaller node count
    assert count_subgraphs(cycle(6), get_pattern("l5")) == 6
    assert count_subgraphs(cycle(8), get_pattern("c8")) == 1
    host = fused_cycles_graph(5, 5)
    assert count_subgraphs(host, get_pattern("c5")) == 2
    # the two 5-cycles also chain into the one outer 8-cycle
    assert count_subgraphs(host, get_pattern("c8")) == 1


def test_counts_are_non_induced():
    # every 3-subset of K4 is a triangle; missing edges impose nothing
    assert count_subgraphs(complete_graph(4), get_pattern("c3")) == 4
    p2 = Pattern(Graph.from_edges(3, [(0, 1), (1, 2)]))
    assert count_subgraphs(complete_graph(3), p2) == 3


def test_empty_and_oversized_patterns():
    g = cycle(4)
    empty = Pattern(Graph.from_edges(0, []))
    assert count_subgraphs(g, empty) == 1
    assert naive_count_oracle(g, empty) == 1
    assert count_subgraphs(cycle(3), get_pattern("c5")) == 0
    assert naive_count_oracle(cycle(3), get_pattern("c5")) == 0


def test_matcher_matches_oracle_on_random_graphs():
    rng = np.random.default_rng(42)
    patterns = list(PATTERN_LIBRARY.values())
    for _ in range(40):
        n = int(rng.integers(1, 8))
        g = make_random_graph(n, float(rng.choice([0.2, 0.5])), rng)
        for p in patterns:
            assert count_subgraphs(g, p) == naive_count_oracle(g, p)


def test_symmetry_broken_search_finds_each_subgraph_once():
    # K4 holds 3 four-cycles; the certified plan meets each once, where the
    # unconstrained search meets each of the 8 maps of every copy
    plan = _compile(get_pattern("c4"))
    assert any(plan.smaller_positions)
    assert count_subgraphs(complete_graph(4), get_pattern("c4"), plan) == 3
    assert count_injective_homs(complete_graph(4), get_pattern("c4")) == 24


def test_uncertified_refinement_chain_is_cut_to_orbits(monkeypatch):
    # C3 plus a disjoint C4 is regular, so refinement cannot tell the two
    # cycles' nodes apart and its cells multiply past |Aut| = 6 * 8: the
    # chain is rebuilt from orbits the symmetry search finds
    p = Pattern(Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5),
                                     (5, 6), (6, 3)]))
    searches = []
    real_search = counting._symmetry_search
    monkeypatch.setattr(counting, "_symmetry_search",
                        lambda *a: searches.append(a) or real_search(*a))
    plan = _compile(p)
    assert searches
    assert any(plan.smaller_positions)
    # in K8: choose the triangle's 3 nodes, then 3 four-cycles on 4 of the
    # remaining 5 nodes
    assert count_subgraphs(complete_graph(8), p, plan) == 56 * 5 * 3
    assert count_subgraphs(cycle(7), p, plan) == 0


def test_oracle_cap():
    with pytest.raises(CapacityError):
        naive_count_oracle(Graph.from_edges(10, []), get_pattern("c3"))


def test_rooted_validation():
    g = cycle(6)
    with pytest.raises(ContractError):
        count_rooted(g, 0, 1, get_pattern("c6"))  # unmarked
    marked = derive_marked_patterns([get_pattern("c6")])[0]
    with pytest.raises(InputError):
        count_rooted(g, 2, 2, marked)
    with pytest.raises(InputError):
        count_rooted(g, 0, 6, marked)


def test_rooted_frozen_on_cycle():
    # marked c6 is the 6-path with marked ends; rooting it at a host pair
    # asks for spanning paths between them, and a cycle only has those
    # between adjacent nodes (the cycle minus one edge), one per direction
    marked = derive_marked_patterns([get_pattern("c6")])[0]
    g = cycle(6)
    assert count_rooted(g, 0, 1, marked) == 1
    assert count_rooted(g, 1, 0, marked) == 1
    assert count_rooted(g, 0, 2, marked) == 0


def test_rooted_counts_with_adjacent_marks():
    # the marks of c4 rooted at (0, 1) are adjacent, so non-adjacent roots
    # give 0; the marked edge has no node left to place. Both count against
    # the exact pinned monomial sums over the host adjacency
    rng = np.random.default_rng(11)
    patterns = [Pattern(cycle(4), marks=(0, 1)),
                Pattern(Graph.from_edges(2, [(0, 1)]), marks=(0, 1))]
    for _ in range(12):
        g = make_random_graph(int(rng.integers(4, 8)), 0.5, rng)
        adj = g.adj.astype(np.int64)
        for p in patterns:
            c, d = p.marks
            expected = pinned_monomial_matrix(adj, p.k, p.graph.edge_list, c, d)
            for i in range(g.n):
                for j in range(g.n):
                    if i != j:
                        assert count_rooted(g, i, j, p) == expected[i, j], (p, i, j)


def test_rooted_sums_to_injective_homs():
    rng = np.random.default_rng(3)
    p3_marked = Pattern(Graph.from_edges(3, [(0, 1), (1, 2)]), marks=(0, 2))
    p3_plain = Pattern(p3_marked.graph)
    for _ in range(10):
        g = make_random_graph(int(rng.integers(3, 7)), 0.5, rng)
        total = sum(count_rooted(g, i, j, p3_marked)
                    for i in range(g.n) for j in range(g.n) if i != j)
        assert total == count_injective_homs(g, p3_plain)


def test_count_distribution_from_counts():
    d = CountDistribution.from_counts([1, 1, 2, 1])
    assert d.sample_size == 4
    assert d.support() == (1, 2)
    assert d.mass == {1: 0.75, 2: 0.25}
    assert d.counts == {1: 3, 2: 1}
    assert d.to_json_dict() == {
        "mass": {"1": 0.75, "2": 0.25},
        "sample_size": 4,
        "counts": {"1": 3, "2": 1},
    }


def test_count_distribution_validation():
    with pytest.raises(ContractError):
        CountDistribution.from_counts([])
    with pytest.raises(ContractError):
        CountDistribution({})
    with pytest.raises(ContractError):
        CountDistribution({0: 0, 1: 0})
    with pytest.raises(ContractError):
        CountDistribution({0: -1, 1: 2})
    # mass and sample_size are derived from the counts
    d = CountDistribution({3: 1, 0: 3})
    assert d.sample_size == 4
    assert d.mass == {3: 0.25, 0: 0.75}
    assert d == CountDistribution.from_counts([0, 3, 0, 0])


def test_count_distribution_over_dataset():
    ds = Dataset(graphs=(complete_graph(4), cycle(4), cycle(3), cycle(6),
                         fused_cycles_graph(5, 5)))
    patterns = [get_pattern(name) for name in ("c3", "c4", "c5", "l5")]
    t1 = count_table(ds.graphs, patterns, threads=1)
    t2 = count_table(ds.graphs, patterns, threads=2)
    assert t1 == t2
    assert t1 == [[count_subgraphs(g, p) for g in ds.graphs] for p in patterns]
    d1 = CountDistribution.from_counts(t1[0])
    assert d1 == CountDistribution.from_counts(t2[0])
    assert d1.counts == {0: 3, 1: 1, 4: 1}
    with pytest.raises(InputError):
        count_table((), [get_pattern("c3")])


@pytest.mark.parametrize("m", [2000, 4000])
def test_cycle_counts_match_closed_walk_traces_on_large_hosts(m):
    # a third witness where the brute-force oracle (9 nodes) and networkx
    # are out of reach: 1000-node hosts, the host cap
    u, v = np.triu_indices(1000, 1)
    picked = np.random.default_rng(m).choice(len(u), size=m, replace=False)
    g = Graph.from_edges(1000, zip(u[picked].tolist(), v[picked].tolist()))
    table = count_table([g], [get_pattern(f"c{k}") for k in (3, 4, 5)])
    assert [column[0] for column in table] == cycle_counts_by_traces(g)
